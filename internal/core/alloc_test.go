package core

import (
	"context"
	"testing"

	"powercap/internal/machine"
	"powercap/internal/workloads"
)

// A warm CapSession re-solve changes only power-row right-hand sides, so
// lp.Solve re-aims the program's cached presolved standard form instead of
// re-ingesting it. The gate pins that reuse by allocation count: a
// re-ingest costs tens of thousands of objects per solve on these
// programs, a re-aimed warm solve a few hundred.
func TestWarmSolveAtAllocs(t *testing.T) {
	const maxAllocs = 1000
	for _, name := range []string{"CoMD", "SP"} {
		t.Run(name, func(t *testing.T) {
			w, err := workloads.ByName(name, workloads.Params{Ranks: 8, Iterations: 4, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			cs, err := NewSolver(machine.Default(), w.EffScale).NewCapSession(context.Background(), w.Graph)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			if _, err := cs.SolveAt(ctx, 60*8); err != nil {
				t.Fatal(err)
			}
			// Alternate two caps so every measured solve repairs its basis
			// with dual pivots rather than re-confirming an optimum.
			caps := []float64{50 * 8, 60 * 8}
			k := 0
			var solveErr error
			allocs := testing.AllocsPerRun(10, func() {
				_, err := cs.SolveAt(ctx, caps[k%len(caps)])
				k++
				if err != nil {
					solveErr = err
				}
			})
			if solveErr != nil {
				t.Fatal(solveErr)
			}
			if cs.Stats().WarmStarts == 0 {
				t.Fatal("session never warm started")
			}
			t.Logf("%s-8 warm SolveAt: %.0f allocs/op", name, allocs)
			if allocs >= maxAllocs {
				t.Errorf("%s-8 warm SolveAt allocates %.0f objects/op, want < %d", name, allocs, maxAllocs)
			}
		})
	}
}

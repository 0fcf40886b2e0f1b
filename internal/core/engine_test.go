package core

import (
	"context"
	"math"
	"testing"

	"powercap/internal/lp"
	"powercap/internal/machine"
	"powercap/internal/workloads"
)

// The basis engine is a performance and rescue knob, never a semantic one:
// both engines must land on the pre-refactor golden objectives.
func TestEngineEquivalenceGoldenObjectives(t *testing.T) {
	for _, name := range []string{"BT", "CoMD"} {
		want := goldenLP[name]
		g := goldenSlice(t, name)
		for _, eng := range []lp.Engine{lp.EngineLU, lp.EngineEta} {
			s := solver()
			s.Engine = eng
			for i, perSocket := range goldenCaps {
				sched, err := s.Solve(g, perSocket*8)
				if err != nil {
					t.Fatalf("%s %v cap %v: %v", name, eng, perSocket, err)
				}
				if rel := math.Abs(sched.MakespanS-want[i]) / want[i]; rel > 1e-9 {
					t.Errorf("%s %v cap %v: makespan %.12f, golden %.12f (rel %g)",
						name, eng, perSocket, sched.MakespanS, want[i], rel)
				}
			}
		}
	}
}

// A CapSession on the LU engine must warm start across cap probes and agree
// with fresh solves — the market's hot path runs on the LU basis, so a
// warm-start regression there is a product regression, not a tuning issue.
func TestCapSessionWarmProbeEngines(t *testing.T) {
	w := workloads.BT(workloads.Params{Ranks: 4, Iterations: 2, Seed: 3, WorkScale: 0.3})
	for _, eng := range []lp.Engine{lp.EngineLU, lp.EngineEta} {
		t.Run(eng.String(), func(t *testing.T) {
			s := NewSolver(machine.Default(), w.EffScale)
			s.Engine = eng
			cs, err := s.NewCapSession(context.Background(), w.Graph)
			if err != nil {
				t.Fatal(err)
			}
			fresh := NewSolver(machine.Default(), w.EffScale)
			fresh.Engine = eng
			for _, capW := range []float64{220, 150, 180, 130} {
				got, err := cs.SolveAt(context.Background(), capW)
				if err != nil {
					t.Fatalf("cap %.0f: %v", capW, err)
				}
				want, err := fresh.Solve(w.Graph, capW)
				if err != nil {
					t.Fatalf("cap %.0f fresh: %v", capW, err)
				}
				if rel := math.Abs(got.MakespanS-want.MakespanS) / want.MakespanS; rel > 1e-9 {
					t.Errorf("cap %.0f: session %.12f vs fresh %.12f (rel %g)",
						capW, got.MakespanS, want.MakespanS, rel)
				}
			}
			if cs.Stats().WarmStarts == 0 {
				t.Errorf("%s session never warm started", eng)
			}
		})
	}
}

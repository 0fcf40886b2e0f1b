package core

import (
	"context"
	"math"
	"testing"

	"powercap/internal/machine"
	"powercap/internal/obs"
	"powercap/internal/workloads"
)

// TestEtaRescuesLUBreakdown pins a real, non-injected rescue: one window of
// this windowed solve hits "singular basis at refactorization" on the
// default LU engine, and lp.Solve's in-solve rescue must finish it on
// the eta engine with the makespan the LU-free reference reports
// (perfbench/golden.json, synthetic-1 at 55.25 W). The breakdown is
// sensitive to pivot order, so if the cold call alone solves cleanly the
// test first replays the benchmark's 63 W warm-up solve on the same Solver,
// the order the benchmark runs them in.
func TestEtaRescuesLUBreakdown(t *testing.T) {
	const (
		ranks = 8
		want  = 1.9255065296644627
	)
	w := workloads.Synthetic(workloads.SynthParams{Ranks: ranks, Events: 2000, Seed: 1})
	s := NewSolver(machine.Default(), w.EffScale)
	opts := WindowedOptions{Windows: 3, OverlapEvents: -1, CoarsenEps: 0.002}

	solve := func() (*WindowedSchedule, []obs.SpanRecord) {
		t.Helper()
		tr := obs.NewTrace(0)
		defer tr.Release()
		ws, err := s.SolveWindowedCtx(obs.WithTrace(context.Background(), tr), w.Graph, 55.25*ranks, opts)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Dropped() > 0 {
			t.Fatalf("trace dropped %d spans", tr.Dropped())
		}
		return ws, tr.Snapshot()
	}

	ws, spans := solve()
	if ws.Stats.Rescues == 0 {
		t.Log("cold solve needed no rescue; replaying the 63 W warm-up first")
		if _, err := s.SolveWindowed(w.Graph, 63*ranks, opts); err != nil {
			t.Fatal(err)
		}
		ws, spans = solve()
	}
	if ws.Stats.Rescues < 1 {
		t.Fatal("no window needed a numerical rescue; the pinned breakdown no longer reproduces")
	}
	rescued := false
	for _, sp := range spans {
		if sp.Name == "lp.solve" && sp.Attrs["engine"] == "eta" && sp.Attrs["status"] == "optimal" {
			rescued = true
		}
	}
	if !rescued {
		t.Fatal("no window solve finished on the eta engine")
	}
	t.Logf("%d rescues, makespan %.16g", ws.Stats.Rescues, ws.MakespanS)
	if d := math.Abs(ws.MakespanS - want); d > 1e-6 {
		t.Fatalf("rescued makespan %.16g, reference %.16g (diff %g)", ws.MakespanS, want, d)
	}
}

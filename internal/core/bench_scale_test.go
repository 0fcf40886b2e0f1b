package core

import (
	"testing"

	"powercap/internal/dag"
	"powercap/internal/machine"
	"powercap/internal/workloads"
)

// BenchmarkSolve16RankSPSlice tracks one cold solve of the default
// experiment scale's SP slice.
func BenchmarkSolve16RankSPSlice(b *testing.B) {
	w := workloads.SP(workloads.Params{Ranks: 16, Iterations: 4, Seed: 1})
	slices, err := dag.SliceAll(w.Graph)
	if err != nil {
		b.Fatal(err)
	}
	sl := slices[2]
	s := NewSolver(machine.Default(), w.EffScale)
	b.ResetTimer()
	var pivots int
	for i := 0; i < b.N; i++ {
		sched, err := s.Solve(sl.Graph, 50*16)
		if err != nil {
			b.Fatal(err)
		}
		pivots = sched.Stats.SimplexPivots
	}
	b.ReportMetric(float64(pivots), "pivots")
}

// benchSweepCaps is the cap family the sweep benchmarks share: 70 → 30 W
// per socket in 5 W steps, all feasible for the 16-rank SP slice.
func benchSweepCaps(ranks int) []float64 {
	var caps []float64
	for per := 70.0; per >= 30; per -= 5 {
		caps = append(caps, per*float64(ranks))
	}
	return caps
}

func benchSweepSlice(b *testing.B) (*dag.Graph, *workloads.Workload) {
	b.Helper()
	w := workloads.SP(workloads.Params{Ranks: 16, Iterations: 4, Seed: 1})
	slices, err := dag.SliceAll(w.Graph)
	if err != nil {
		b.Fatal(err)
	}
	return slices[2].Graph, w
}

// BenchmarkSweepColdSparse is the cold baseline: every cap solved from
// scratch.
func BenchmarkSweepColdSparse(b *testing.B) {
	g, w := benchSweepSlice(b)
	caps := benchSweepCaps(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSolver(machine.Default(), w.EffScale)
		for _, c := range caps {
			if _, err := s.Solve(g, c); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSweepWarmSparse is the full warm-started sweep: build the LP
// once, dual-simplex repair per cap.
func BenchmarkSweepWarmSparse(b *testing.B) {
	g, w := benchSweepSlice(b)
	caps := benchSweepCaps(16)
	b.ResetTimer()
	var warm int
	for i := 0; i < b.N; i++ {
		s := NewSolver(machine.Default(), w.EffScale)
		pts, err := s.SolveSweep(g, caps)
		if err != nil {
			b.Fatal(err)
		}
		warm = 0
		for _, pt := range pts {
			if pt.Err != nil {
				b.Fatal(pt.Err)
			}
			warm += pt.Schedule.Stats.WarmStarts
		}
	}
	b.ReportMetric(float64(warm), "warmstarts")
}

package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"powercap/internal/lp"
	"powercap/internal/machine"
	"powercap/internal/workloads"
)

// TestCrashStartMatchesCold checks the crash basis against a cold solve of
// the same built LP across every workload proxy, two sizes, two seeds and
// caps from 1 to 80 W per socket in 0.5 W steps. The crash start must
// agree with the cold two-phase solve on the objective (1e-9 relative) and
// on every infeasibility verdict in both directions, and a crash-started
// solve must spend no phase-1 pivot: the lowest-power ASAP start is
// feasible exactly when the LP is, which is what lets floorW decide
// infeasibility without a solve. Under -race the grid steps 4 W.
func TestCrashStartMatchesCold(t *testing.T) {
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			crashes, infeasible := crashVersusCold(t, name)
			if crashes == 0 || infeasible == 0 {
				t.Fatalf("sweep covered %d crash starts and %d infeasible caps; want both", crashes, infeasible)
			}
			t.Logf("%d crash starts, %d infeasible verdicts, 0 disagreements", crashes, infeasible)
		})
	}
}

// crashVersusCold runs the comparison for one workload over both sizes and
// seeds, returning how many caps took the crash start and how many the
// floor ruled infeasible.
func crashVersusCold(t *testing.T, name string) (crashes, infeasible int) {
	for _, ranks := range []int{4, 8} {
		for seed := int64(1); seed <= 2; seed++ {
			w, err := workloads.ByName(name, workloads.Params{Ranks: ranks, Iterations: 1, Seed: seed, WorkScale: 0.3})
			if err != nil {
				t.Fatal(err)
			}
			s := NewSolver(machine.Default(), w.EffScale)
			b, err := s.buildLP(context.Background(), w.Graph)
			if err != nil {
				t.Fatal(err)
			}
			step := 0.5
			if raceEnabled {
				step = 4
			}
			for perSocket := 1.0; perSocket <= 80; perSocket += step {
				capW := perSocket * float64(ranks)
				where := fmt.Sprintf("%s ranks %d seed %d at %.1f W/socket", name, ranks, seed, perSocket)

				var st Stats
				sol, err := s.solveBuilt(context.Background(), b, capW, nil, &st)
				crashInfeasible := errors.Is(err, ErrInfeasible)
				if err != nil && !crashInfeasible {
					t.Fatalf("%s: crash-started solve: %v", where, err)
				}

				for _, pr := range b.powerRows {
					if err := b.prob.SetRHS(pr.row, capW-pr.deduct); err != nil {
						t.Fatal(err)
					}
				}
				cold, err := lp.Solve(b.prob)
				if err != nil {
					t.Fatalf("%s: cold solve: %v", where, err)
				}
				coldInfeasible := cold.Status == lp.Infeasible
				if !coldInfeasible && cold.Status != lp.Optimal {
					t.Fatalf("%s: cold solve status %v", where, cold.Status)
				}

				if crashInfeasible != coldInfeasible {
					t.Fatalf("%s: floor says infeasible=%v (floor %.6f W), cold solve says %v",
						where, crashInfeasible, b.floorW, cold.Status)
				}
				if crashInfeasible {
					infeasible++
					if st.Solves != 0 {
						t.Fatalf("%s: infeasible cap ran %d solves, want 0", where, st.Solves)
					}
					continue
				}
				crashes++
				if b.crash(capW) == nil {
					t.Fatalf("%s: no crash basis at a feasible cap", where)
				}
				if sol.Stats.Phase1Iters != 0 {
					t.Fatalf("%s: crash-started solve spent %d phase-1 pivots", where, sol.Stats.Phase1Iters)
				}
				if d := math.Abs(sol.Objective-cold.Objective) / math.Max(math.Abs(cold.Objective), 1e-300); d > 1e-9 {
					t.Fatalf("%s: crash objective %.17g, cold %.17g (rel diff %g)", where, sol.Objective, cold.Objective, d)
				}
			}
		}
	}
	return crashes, infeasible
}

package lp

import (
	"math"
	"testing"
)

// Primal-start tests: a supplied basis that is not dual feasible but is
// primal feasible (the crash basis internal/core builds for cold solves)
// must reach the cold optimum through primal phase 2 alone; a basis that
// is neither must fall back to the cold two-phase solve.

// primalStartLP is
//
//	min  x + 2y
//	s.t. x + y ≥ 2   (row 0)
//	     x − y ≤ 1   (row 1)
//
// with optimum x = 1.5, y = 0.5 (objective 2.5). Row 0 needs an artificial,
// so a cold solve always runs phase 1.
func primalStartLP() *Problem {
	p := NewProblem(Minimize)
	x := p.AddVar("x", 1)
	y := p.AddVar("y", 2)
	p.MustConstraint("r0", Expr{}.Plus(x, 1).Plus(y, 1), GE, 2)
	p.MustConstraint("r1", Expr{}.Plus(x, 1).Plus(y, -1), LE, 1)
	return p
}

func TestPrimalFeasibleBasisSkipsPhase1(t *testing.T) {
	p := primalStartLP()
	cold, err := Solve(p)
	if err != nil || cold.Status != Optimal {
		t.Fatalf("cold: %v %v", cold, err)
	}

	// {y, slack of row 1}: y = 2, slack = 3 — primal feasible; x prices
	// out at 1 − 2 < 0, so the basis is not dual feasible.
	nv := p.NumVars()
	sol, err := Solve(p, WithWarmBasis([]int{1, nv + 1}))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-cold.Objective) > 1e-12 {
		t.Fatalf("primal start: status %v objective %.17g, cold %.17g", sol.Status, sol.Objective, cold.Objective)
	}
	if sol.Stats.Phase1Iters != 0 || sol.Stats.DualIters != 0 || sol.Stats.Phase2Iters == 0 {
		t.Fatalf("primal start ran phase1=%d dual=%d phase2=%d pivots, want phase 2 only",
			sol.Stats.Phase1Iters, sol.Stats.DualIters, sol.Stats.Phase2Iters)
	}
	if sol.Stats.WarmStarted {
		t.Fatal("a primal start reported WarmStarted, which names the dual-simplex path")
	}
}

func TestPrimalInfeasibleBasisFallsBackCold(t *testing.T) {
	p := primalStartLP()
	cold, err := Solve(p)
	if err != nil || cold.Status != Optimal {
		t.Fatalf("cold: %v %v", cold, err)
	}

	// {x, surplus of row 0}: x = 1, surplus = −1 — primal infeasible; the
	// slack of row 1 prices out at −1, so it is not dual feasible either.
	nv := p.NumVars()
	sol, err := Solve(p, WithWarmBasis([]int{0, nv}))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-cold.Objective) > 1e-12 {
		t.Fatalf("fallback: status %v objective %.17g, cold %.17g", sol.Status, sol.Objective, cold.Objective)
	}
	if sol.Stats.Phase1Iters == 0 || sol.Stats.WarmStarted {
		t.Fatalf("fallback ran phase1=%d pivots (warm=%v), want the cold two-phase solve",
			sol.Stats.Phase1Iters, sol.Stats.WarmStarted)
	}
}

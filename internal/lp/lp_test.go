package lp

import (
	"math"
	"testing"
)

func approxEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestSolveEmptyProblem(t *testing.T) {
	p := NewProblem(Minimize)
	if _, err := p.Solve(); err != ErrNoVariables {
		t.Fatalf("expected ErrNoVariables, got %v", err)
	}
}

// TestSolveDefaultsToLU: with no options, both entry points run the sparse
// revised simplex on the LU engine.
func TestSolveDefaultsToLU(t *testing.T) {
	p := bigRandomLP(7)
	viaFunc, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	viaMethod, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for name, sol := range map[string]*Solution{"lp.Solve": viaFunc, "Problem.Solve": viaMethod} {
		if sol.Status != Optimal {
			t.Fatalf("%s: status %v, want optimal", name, sol.Status)
		}
		if sol.Stats.Engine != "lu" {
			t.Fatalf("%s: Stats.Engine = %q, want lu", name, sol.Stats.Engine)
		}
	}
}

func TestSimpleMinimize(t *testing.T) {
	// min x + y  s.t.  x + y >= 2, x >= 0, y >= 0  → obj 2
	p := NewProblem(Minimize)
	x := p.AddVar("x", 1)
	y := p.AddVar("y", 1)
	p.MustConstraint("lb", Expr{}.Plus(x, 1).Plus(y, 1), GE, 2)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if !approxEq(sol.Objective, 2, 1e-8) {
		t.Fatalf("objective = %v, want 2", sol.Objective)
	}
}

func TestSimpleMaximize(t *testing.T) {
	// max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 → obj 36 at (2,6)
	p := NewProblem(Maximize)
	x := p.AddVar("x", 3)
	y := p.AddVar("y", 5)
	p.MustConstraint("c1", Expr{}.Plus(x, 1), LE, 4)
	p.MustConstraint("c2", Expr{}.Plus(y, 2), LE, 12)
	p.MustConstraint("c3", Expr{}.Plus(x, 3).Plus(y, 2), LE, 18)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if !approxEq(sol.Objective, 36, 1e-8) {
		t.Fatalf("objective = %v, want 36", sol.Objective)
	}
	if !approxEq(sol.Value(x), 2, 1e-8) || !approxEq(sol.Value(y), 6, 1e-8) {
		t.Fatalf("solution = (%v,%v), want (2,6)", sol.Value(x), sol.Value(y))
	}
}

func TestEqualityConstraints(t *testing.T) {
	// min 2x + 3y  s.t. x + y = 4, x - y = 0 → x=y=2, obj 10
	p := NewProblem(Minimize)
	x := p.AddVar("x", 2)
	y := p.AddVar("y", 3)
	p.MustConstraint("sum", Expr{}.Plus(x, 1).Plus(y, 1), EQ, 4)
	p.MustConstraint("diff", Expr{}.Plus(x, 1).Plus(y, -1), EQ, 0)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if !approxEq(sol.Objective, 10, 1e-8) {
		t.Fatalf("objective = %v, want 10", sol.Objective)
	}
}

func TestInfeasible(t *testing.T) {
	// x >= 5 and x <= 3 cannot both hold.
	p := NewProblem(Minimize)
	x := p.AddVar("x", 1)
	p.MustConstraint("lo", Expr{}.Plus(x, 1), GE, 5)
	p.MustConstraint("hi", Expr{}.Plus(x, 1), LE, 3)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	// max x with only x >= 1.
	p := NewProblem(Maximize)
	x := p.AddVar("x", 1)
	p.MustConstraint("lo", Expr{}.Plus(x, 1), GE, 1)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// -x - y <= -2  is  x + y >= 2.
	p := NewProblem(Minimize)
	x := p.AddVar("x", 1)
	y := p.AddVar("y", 2)
	p.MustConstraint("neg", Expr{}.Plus(x, -1).Plus(y, -1), LE, -2)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	// Cheapest way to reach x+y >= 2 is x = 2.
	if !approxEq(sol.Objective, 2, 1e-8) {
		t.Fatalf("objective = %v, want 2", sol.Objective)
	}
}

func TestDuplicateTermsAccumulate(t *testing.T) {
	// x + x <= 4  ⇒ x <= 2.
	p := NewProblem(Maximize)
	x := p.AddVar("x", 1)
	p.MustConstraint("dup", Expr{}.Plus(x, 1).Plus(x, 1), LE, 4)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(sol.Objective, 2, 1e-8) {
		t.Fatalf("objective = %v, want 2", sol.Objective)
	}
}

func TestDegenerateLP(t *testing.T) {
	// A classic degenerate instance (Beale's cycling example under naive
	// Dantzig). The Bland fallback must terminate at the optimum −0.05.
	p := NewProblem(Minimize)
	x1 := p.AddVar("x1", -0.75)
	x2 := p.AddVar("x2", 150)
	x3 := p.AddVar("x3", -0.02)
	x4 := p.AddVar("x4", 6)
	p.MustConstraint("r1", Expr{}.Plus(x1, 0.25).Plus(x2, -60).Plus(x3, -0.04).Plus(x4, 9), LE, 0)
	p.MustConstraint("r2", Expr{}.Plus(x1, 0.5).Plus(x2, -90).Plus(x3, -0.02).Plus(x4, 3), LE, 0)
	p.MustConstraint("r3", Expr{}.Plus(x3, 1), LE, 1)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if !approxEq(sol.Objective, -0.05, 1e-8) {
		t.Fatalf("objective = %v, want -0.05", sol.Objective)
	}
}

func TestRedundantEqualityRows(t *testing.T) {
	// Duplicate equality rows leave an artificial basic at zero; the
	// redundant row must be neutralized, not declared infeasible.
	p := NewProblem(Minimize)
	x := p.AddVar("x", 1)
	y := p.AddVar("y", 1)
	p.MustConstraint("e1", Expr{}.Plus(x, 1).Plus(y, 1), EQ, 3)
	p.MustConstraint("e2", Expr{}.Plus(x, 1).Plus(y, 1), EQ, 3)
	p.MustConstraint("e3", Expr{}.Plus(x, 2).Plus(y, 2), EQ, 6)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if !approxEq(sol.Objective, 3, 1e-8) {
		t.Fatalf("objective = %v, want 3", sol.Objective)
	}
}

func TestZeroObjectiveFeasibility(t *testing.T) {
	// Pure feasibility problem: any point with x+y=1 works, objective 0.
	p := NewProblem(Minimize)
	x := p.AddVar("x", 0)
	y := p.AddVar("y", 0)
	p.MustConstraint("e", Expr{}.Plus(x, 1).Plus(y, 1), EQ, 1)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if !approxEq(sol.Value(x)+sol.Value(y), 1, 1e-8) {
		t.Fatalf("x+y = %v, want 1", sol.Value(x)+sol.Value(y))
	}
}

func TestConvexCombinationStructure(t *testing.T) {
	// Mimics the paper's configuration rows (Eqs. 6–9): pick a convex
	// combination of (duration, power) points minimizing duration subject
	// to a power cap. Points: (10s, 20w), (6s, 30w), (4s, 45w).
	// Cap 36w → mix of the 30w and 45w points: λ·30+(1−λ)·45 = 36 ⇒ λ=0.6,
	// duration = 0.6·6 + 0.4·4 = 5.2.
	p := NewProblem(Minimize)
	c1 := p.AddVar("c1", 10)
	c2 := p.AddVar("c2", 6)
	c3 := p.AddVar("c3", 4)
	p.MustConstraint("convex", Expr{}.Plus(c1, 1).Plus(c2, 1).Plus(c3, 1), EQ, 1)
	p.MustConstraint("power", Expr{}.Plus(c1, 20).Plus(c2, 30).Plus(c3, 45), LE, 36)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if !approxEq(sol.Objective, 5.2, 1e-8) {
		t.Fatalf("objective = %v, want 5.2", sol.Objective)
	}
}

func TestVarNameAndString(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVar("speed", 1)
	if p.VarName(x) != "speed" {
		t.Fatalf("VarName = %q", p.VarName(x))
	}
	if p.VarName(Var(99)) == "speed" {
		t.Fatal("out-of-range VarName should not resolve")
	}
	p.MustConstraint("cap", Expr{}.Plus(x, 2), LE, 10)
	s := p.String()
	if s == "" {
		t.Fatal("String() empty")
	}
}

func TestAddConstraintRejectsUnknownVar(t *testing.T) {
	p := NewProblem(Minimize)
	p.AddVar("x", 1)
	err := p.AddConstraint("bad", Expr{{Var: 5, Coef: 1}}, LE, 1)
	if err == nil {
		t.Fatal("expected error for undeclared variable")
	}
}

func TestSetObjCoef(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVar("x", 0)
	if err := p.SetObjCoef(x, 3); err != nil {
		t.Fatal(err)
	}
	if err := p.SetObjCoef(Var(7), 1); err == nil {
		t.Fatal("expected range error")
	}
	p.MustConstraint("lo", Expr{}.Plus(x, 1), GE, 2)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(sol.Objective, 6, 1e-8) {
		t.Fatalf("objective = %v, want 6", sol.Objective)
	}
}

func TestMediumRandomInstanceAgainstKnown(t *testing.T) {
	// Transportation-style LP with known optimum.
	// min Σ cost·ship  s.t. supply rows =, demand rows =.
	// 2 plants (supply 30, 25) → 3 markets (demand 15, 20, 20).
	// costs: p1: 4,6,8 ; p2: 5,3,7.
	p := NewProblem(Minimize)
	x := make([]Var, 6)
	costs := []float64{4, 6, 8, 5, 3, 7}
	for i := range x {
		x[i] = p.AddVar("", costs[i])
	}
	p.MustConstraint("s1", Expr{}.Plus(x[0], 1).Plus(x[1], 1).Plus(x[2], 1), EQ, 30)
	p.MustConstraint("s2", Expr{}.Plus(x[3], 1).Plus(x[4], 1).Plus(x[5], 1), EQ, 25)
	p.MustConstraint("d1", Expr{}.Plus(x[0], 1).Plus(x[3], 1), EQ, 15)
	p.MustConstraint("d2", Expr{}.Plus(x[1], 1).Plus(x[4], 1), EQ, 20)
	p.MustConstraint("d3", Expr{}.Plus(x[2], 1).Plus(x[5], 1), EQ, 20)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	// Optimal: x11=15,x13=15 (cost 60+120), x22=20,x23=5 (60+35) = 275.
	if !approxEq(sol.Objective, 275, 1e-7) {
		t.Fatalf("objective = %v, want 275", sol.Objective)
	}
}

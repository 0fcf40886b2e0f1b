package lp

import (
	"context"
	"errors"
	"math"
	"testing"

	"powercap/internal/faultinject"
)

// smallLP is an always-feasible minimization that solves in well under one
// checkpoint window (cancelCheckEvery pivots), so a rate-1.0 NaN injection
// fires exactly once — at the iteration-0 checkpoint — and a single
// refactorization recovery must carry the solve to optimality.
func smallLP() *Problem {
	p := NewProblem(Minimize)
	x := p.AddVar("x", -1)
	y := p.AddVar("y", -2)
	z := p.AddVar("z", 1)
	p.MustConstraint("", Expr{}.Plus(x, 1).Plus(y, 1), LE, 4)
	p.MustConstraint("", Expr{}.Plus(x, 1).Plus(z, 2), LE, 6)
	p.MustConstraint("", Expr{}.Plus(y, 1).Plus(z, -1), LE, 3)
	return p
}

// TestInjectedNaNSparseRecovers: one injected NaN must be repaired by
// reinversion, and because reinversion rebuilds exactly the state the solve
// already had, the objective must match the fault-free solve bit for bit.
func TestInjectedNaNSparseRecovers(t *testing.T) {
	p := smallLP()
	clean, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Status != Optimal {
		t.Fatalf("baseline status = %v", clean.Status)
	}
	if clean.Iters >= cancelCheckEvery {
		t.Fatalf("test LP too hard: %d pivots, need < %d for a single injection", clean.Iters, cancelCheckEvery)
	}

	faultinject.Configure(11, map[faultinject.Class]float64{faultinject.LPNaN: 1.0})
	defer faultinject.Disable()
	sol, err := Solve(p)
	if err != nil {
		t.Fatalf("sparse solve with one recoverable NaN: %v", err)
	}
	if faultinject.Count(faultinject.LPNaN) == 0 {
		t.Fatal("fault never fired; test exercises nothing")
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want Optimal after NaN recovery", sol.Status)
	}
	if math.Float64bits(sol.Objective) != math.Float64bits(clean.Objective) {
		t.Fatalf("objective %v != clean %v after recovery", sol.Objective, clean.Objective)
	}
	if sol.Stats.Refactorizations <= clean.Stats.Refactorizations {
		t.Fatalf("recovery left no reinversion trace: %d <= %d",
			sol.Stats.Refactorizations, clean.Stats.Refactorizations)
	}
}

// TestInjectedNaNSparseExhaustsRetries: a NaN at every checkpoint outlives
// the maxNaNRetries budget on a long solve and must surface as a typed
// *NumericalError, not as a NaN-laced solution or a bare IterLimit.
func TestInjectedNaNSparseExhaustsRetries(t *testing.T) {
	p := bigRandomLP(1)
	clean, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Iters <= (maxNaNRetries+1)*cancelCheckEvery {
		t.Fatalf("test LP too easy: %d pivots, need > %d to exhaust retries",
			clean.Iters, (maxNaNRetries+1)*cancelCheckEvery)
	}

	faultinject.Configure(12, map[faultinject.Class]float64{faultinject.LPNaN: 1.0})
	defer faultinject.Disable()
	sol, err := Solve(p)
	if err == nil {
		t.Fatalf("want *NumericalError, got status %v", sol.Status)
	}
	var ne *NumericalError
	if !errors.As(err, &ne) {
		t.Fatalf("error %T is not *NumericalError: %v", err, err)
	}
	if ne.Backend != "sparse" {
		t.Fatalf("Backend = %q, want sparse", ne.Backend)
	}
	if ne.Reason == "" {
		t.Fatal("empty Reason")
	}
}

// TestInjectedNaNDenseErrorsTyped: the dense tableau has no factored form to
// rebuild, so an injected NaN must surface directly as *NumericalError.
func TestInjectedNaNDenseErrorsTyped(t *testing.T) {
	faultinject.Configure(13, map[faultinject.Class]float64{faultinject.LPNaN: 1.0})
	defer faultinject.Disable()
	sol, err := solveDenseOracle(bigRandomLP(2))
	if err == nil {
		t.Fatalf("want *NumericalError, got status %v", sol.Status)
	}
	var ne *NumericalError
	if !errors.As(err, &ne) {
		t.Fatalf("error %T is not *NumericalError: %v", err, err)
	}
	if ne.Backend != "dense" {
		t.Fatalf("Backend = %q, want dense", ne.Backend)
	}
}

// TestInjectedStallSurfacesIterLimit: the LPStall fault reports budget
// exhaustion through the normal IterLimit status, no error — the ladder
// treats it as a transient, like a genuinely hard solve.
func TestInjectedStallSurfacesIterLimit(t *testing.T) {
	faultinject.Configure(14, map[faultinject.Class]float64{faultinject.LPStall: 1.0})
	defer faultinject.Disable()
	for _, sv := range testSolvers {
		sol, err := sv.solve(bigRandomLP(3))
		if err != nil {
			t.Fatalf("%s: %v", sv.name, err)
		}
		if sol.Status != IterLimit {
			t.Fatalf("%s: status = %v, want IterLimit", sv.name, sol.Status)
		}
		if !math.IsNaN(sol.Objective) {
			t.Fatalf("%s: stalled solve leaked objective %v", sv.name, sol.Objective)
		}
	}
}

// TestCancellationBeatsInjectedFaults: a dead context must surface as
// Canceled even when every checkpoint would also inject a fault — the
// checkpoint ordering guarantees cancellation is never masked.
func TestCancellationBeatsInjectedFaults(t *testing.T) {
	faultinject.Configure(15, map[faultinject.Class]float64{
		faultinject.LPNaN:   1.0,
		faultinject.LPStall: 1.0,
	})
	defer faultinject.Disable()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, sv := range testSolvers {
		sol, err := sv.solve(bigRandomLP(4), WithContext(ctx))
		if err != nil {
			t.Fatalf("%s: %v", sv.name, err)
		}
		if sol.Status != Canceled {
			t.Fatalf("%s: status = %v, want Canceled", sv.name, sol.Status)
		}
	}
}

// TestFaultsOffBitIdentical: arming and disarming the registry must leave no
// residue — a disarmed solve after a chaos run is bit-identical to one from
// a pristine process state, on the dense oracle and on Solve.
func TestFaultsOffBitIdentical(t *testing.T) {
	p := bigRandomLP(5)
	type res struct {
		status Status
		obj    uint64
		iters  int
	}
	for _, sv := range testSolvers {
		solve := func() res {
			sol, err := sv.solve(p)
			if err != nil {
				t.Fatal(err)
			}
			return res{sol.Status, math.Float64bits(sol.Objective), sol.Iters}
		}
		before := solve()
		faultinject.Configure(16, map[faultinject.Class]float64{faultinject.LPNaN: 1.0})
		if _, err := sv.solve(p); err == nil && sv.name == "dense" {
			t.Fatal("armed dense solve unexpectedly survived rate-1.0 NaN injection")
		}
		faultinject.Disable()
		after := solve()
		if before != after {
			t.Fatalf("%s: disarmed solve changed: %+v vs %+v", sv.name, before, after)
		}
	}
}

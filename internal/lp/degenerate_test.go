package lp

import (
	"math"
	"testing"
)

// Regression: on a classic degenerate-cycling instance, forcing the Bland
// stall threshold to its minimum must activate Bland's rule in both the
// dense oracle and Solve, and both must still terminate at the optimum
// within a finite pivot budget (no cycling).

// bealeProblem is Beale's example, the canonical LP on which textbook
// Dantzig pricing cycles forever. Optimum: x = (1/25, 0, 1, 0), obj −1/20.
func bealeProblem() *Problem {
	p := NewProblem(Minimize)
	x1 := p.AddVar("x1", -0.75)
	x2 := p.AddVar("x2", 150)
	x3 := p.AddVar("x3", -0.02)
	x4 := p.AddVar("x4", 6)
	p.MustConstraint("", Expr{}.Plus(x1, 0.25).Plus(x2, -60).Plus(x3, -0.04).Plus(x4, 9), LE, 0)
	p.MustConstraint("", Expr{}.Plus(x1, 0.5).Plus(x2, -90).Plus(x3, -0.02).Plus(x4, 3), LE, 0)
	p.MustConstraint("", Expr{}.Plus(x3, 1), LE, 1)
	return p
}

func TestDegenerateCyclingBlandActivation(t *testing.T) {
	for _, sv := range testSolvers {
		t.Run(sv.name, func(t *testing.T) {
			p := bealeProblem()
			// StallWindow 1 means the very first non-improving (degenerate)
			// pivot flips the solver into Bland's rule; the tight MaxIters
			// budget makes any cycling show up as IterLimit instead of a
			// hung test.
			sol, err := sv.solve(p,
				WithStallWindow(1),
				WithMaxIters(500))
			if err != nil {
				t.Fatal(err)
			}
			if sol.Status != Optimal {
				t.Fatalf("status %v, want optimal (cycled or stuck?)", sol.Status)
			}
			if math.Abs(sol.Objective-(-0.05)) > 1e-9 {
				t.Fatalf("objective %v, want -0.05", sol.Objective)
			}
			if !sol.Stats.BlandActivated {
				t.Fatalf("Bland's rule never activated despite StallWindow=1 on a degenerate instance")
			}
			if sol.Iters > 500 {
				t.Fatalf("iteration budget exceeded: %d", sol.Iters)
			}
		})
	}
}

// TestDegenerateSteepestEdgeNoCycling pins the anti-cycling story for the
// steepest-edge pricer across both basis engines: when Bland's rule engages
// it refreshes reduced costs exactly every iteration (first-negative over
// exact d[]), so the finite-termination guarantee survives the incremental
// pricing layer. Beale's instance must terminate at the optimum on every
// engine, with and without a forced Bland flip.
func TestDegenerateSteepestEdgeNoCycling(t *testing.T) {
	for _, eng := range []Engine{EngineEta, EngineLU} {
		t.Run(eng.String()+"/steepest", func(t *testing.T) {
			for _, forceBland := range []bool{false, true} {
				opts := []Option{WithEngine(eng), WithMaxIters(500)}
				if forceBland {
					opts = append(opts, WithStallWindow(1))
				}
				sol, err := Solve(bealeProblem(), opts...)
				if err != nil {
					t.Fatalf("forceBland=%v: %v", forceBland, err)
				}
				if sol.Status != Optimal {
					t.Fatalf("forceBland=%v: status %v, want optimal (cycled?)", forceBland, sol.Status)
				}
				if math.Abs(sol.Objective-(-0.05)) > 1e-9 {
					t.Fatalf("forceBland=%v: objective %v, want -0.05", forceBland, sol.Objective)
				}
				if forceBland && !sol.Stats.BlandActivated {
					t.Fatalf("Bland's rule never activated despite StallWindow=1")
				}
				if sol.Stats.Engine != eng.String() {
					t.Fatalf("stats report engine=%q, want %q", sol.Stats.Engine, eng)
				}
			}
		})
	}
}

// TestDegenerateDefaultStallWindow makes sure the default configuration
// also solves the cycling instance (the stall heuristic engages on its
// own if needed — either way termination and the optimum are required).
func TestDegenerateDefaultStallWindow(t *testing.T) {
	for _, sv := range testSolvers {
		t.Run(sv.name, func(t *testing.T) {
			sol, err := sv.solve(bealeProblem())
			if err != nil {
				t.Fatal(err)
			}
			if sol.Status != Optimal {
				t.Fatalf("status %v, want optimal", sol.Status)
			}
			if math.Abs(sol.Objective-(-0.05)) > 1e-9 {
				t.Fatalf("objective %v, want -0.05", sol.Objective)
			}
		})
	}
}

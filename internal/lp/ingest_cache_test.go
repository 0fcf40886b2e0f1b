package lp

import (
	"math"
	"testing"
)

// The warm-start ingest cache (Problem.warm) must be invisible: a warm
// solve that re-aims the cached presolved standard form returns, bit for
// bit, what a fresh Clone — which ingests from scratch — returns at the same
// right-hand sides from the same basis.

// cacheLP is sweepLikeLP with the power coefficients and the cap scaled by
// powerScale (a large scale makes presolve's equilibration engage), a
// duplicated term in the first convexity row, and a "diff" row a0 − a2 ≥ r
// whose right-hand side the tests flip in sign. Returns the problem and the
// cap and diff row indices.
func cacheLP(powerScale float64) (*Problem, int, int) {
	p := NewProblem(Minimize)
	times := [3][2]float64{{4, 9}, {6, 11}, {3, 8}}
	power := [3][2]float64{{50, 20}, {55, 25}, {45, 15}}
	var fast [3]Var
	capExpr := Expr{}
	for ti := range times {
		a := p.AddVar("", times[ti][0])
		b := p.AddVar("", times[ti][1])
		fast[ti] = a
		convex := Expr{}.Plus(a, 1).Plus(b, 1)
		if ti == 0 {
			convex = Expr{}.Plus(a, 0.5).Plus(b, 1).Plus(a, 0.5)
		}
		p.MustConstraint("", convex, EQ, 1)
		capExpr = capExpr.Plus(a, power[ti][0]*powerScale).Plus(b, power[ti][1]*powerScale)
	}
	p.MustConstraint("cap", capExpr, LE, 150*powerScale)
	capRow := p.NumConstraints() - 1
	p.MustConstraint("diff", Expr{}.Plus(fast[0], 1).Plus(fast[2], -1), GE, -0.5)
	return p, capRow, p.NumConstraints() - 1
}

// sameSolution fails t unless got and want agree bit for bit in every
// reported field except wall time.
func sameSolution(t *testing.T, what string, got, want *Solution) {
	t.Helper()
	if got.Status != want.Status {
		t.Fatalf("%s: status %v, fresh %v", what, got.Status, want.Status)
	}
	if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		t.Errorf("%s: objective %v, fresh %v", what, got.Objective, want.Objective)
	}
	sameBits(t, what+" X", got.X, want.X)
	sameBits(t, what+" Dual", got.Dual, want.Dual)
	if len(got.Basis) != len(want.Basis) {
		t.Errorf("%s: basis %v, fresh %v", what, got.Basis, want.Basis)
	} else {
		for i := range got.Basis {
			if got.Basis[i] != want.Basis[i] {
				t.Errorf("%s: basis %v, fresh %v", what, got.Basis, want.Basis)
				break
			}
		}
	}
	if got.Iters != want.Iters {
		t.Errorf("%s: iters %d, fresh %d", what, got.Iters, want.Iters)
	}
	gs, ws := got.Stats, want.Stats
	gs.Wall, ws.Wall = 0, 0
	if gs != ws {
		t.Errorf("%s: stats %+v, fresh %+v", what, gs, ws)
	}
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: len %d, fresh %d", what, len(got), len(want))
		return
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("%s[%d]: %v, fresh %v", what, i, got[i], want[i])
		}
	}
}

// warmAgainstFresh warm-solves p from basis and a fresh clone of p from the
// same basis, requires identical answers, and returns p's.
func warmAgainstFresh(t *testing.T, what string, p *Problem, basis []int) *Solution {
	t.Helper()
	fresh := p.Clone()
	want, err := Solve(fresh, WithWarmBasis(basis))
	if err != nil {
		t.Fatalf("%s fresh: %v", what, err)
	}
	got, err := Solve(p, WithWarmBasis(basis))
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	sameSolution(t, what, got, want)
	return got
}

func TestIngestCacheInvisible(t *testing.T) {
	steps := []struct {
		name      string
		capW      float64 // cap row RHS, before power scaling
		diff      float64 // diff row RHS
		reingests bool    // a sign change must rebuild the ingest
	}{
		{"first warm solve", 130, -0.5, true},
		{"tighter cap", 110, -0.5, false},
		{"diff relaxes", 110, -0.2, false},
		{"diff flips positive", 110, 0.2, true},
		{"cap moves", 95, 0.1, false},
		{"diff flips back", 95, -0.1, true},
		{"infeasible cap", 45, -0.1, false},
		{"feasible again", 120, -0.1, false},
		{"loose cap", 400, -0.1, false},
	}
	for _, tc := range []struct {
		name       string
		powerScale float64
		wantScaled bool
	}{
		{"unscaled", 1, false},
		{"equilibrated", 1e4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, capRow, diffRow := cacheLP(tc.powerScale)
			cold, err := Solve(p)
			if err != nil || cold.Status != Optimal {
				t.Fatalf("cold: %v %v", err, cold)
			}
			if p.warm != nil {
				t.Fatal("a cold solve cached its ingest")
			}
			basis := cold.Basis
			warmStarts, infeasible := 0, 0
			for _, st := range steps {
				prev := p.warm
				if err := p.SetRHS(capRow, st.capW*tc.powerScale); err != nil {
					t.Fatal(err)
				}
				if err := p.SetRHS(diffRow, st.diff); err != nil {
					t.Fatal(err)
				}
				sol := warmAgainstFresh(t, st.name, p, basis)
				if p.warm == nil {
					t.Fatalf("%s: warm solve left no ingest", st.name)
				}
				if (p.warm != prev) != st.reingests {
					t.Errorf("%s: reingested=%v, want %v", st.name, p.warm != prev, st.reingests)
				}
				if p.warm.red.Scaled != tc.wantScaled {
					t.Errorf("%s: scaled=%v, want %v", st.name, p.warm.red.Scaled, tc.wantScaled)
				}
				if sol.Stats.WarmStarted {
					warmStarts++
				}
				switch sol.Status {
				case Optimal:
					basis = sol.Basis
				case Infeasible:
					infeasible++
				}
			}
			if warmStarts < len(steps)/2 || infeasible != 1 {
				t.Errorf("%d of %d solves warm started, %d infeasible (want most, and 1)",
					warmStarts, len(steps), infeasible)
			}
		})
	}
}

// Every mutator but SetRHS changes what the ingest is built from, so it
// must drop the cache; the next warm solve then matches a fresh clone.
func TestIngestCacheDroppedByMutators(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate []func(p *Problem)
	}{
		{"AddVar", []func(*Problem){func(p *Problem) { p.AddVar("z", -1) }}},
		{"AddConstraint", []func(*Problem){func(p *Problem) {
			p.MustConstraint("extra", Expr{}.Plus(Var(0), 1), LE, 0.4)
		}}},
		{"MustConstraint row with new var", []func(*Problem){func(p *Problem) {
			z := p.AddVar("z", -1)
			p.MustConstraint("zcap", Expr{}.Plus(z, 1).Plus(Var(1), 1), LE, 1.5)
		}}},
		{"SetObjCoef", []func(*Problem){func(p *Problem) {
			if err := p.SetObjCoef(Var(1), 2); err != nil {
				t.Fatal(err)
			}
		}}},
		// A stale cached pivot budget only shows when the problem's own
		// budget goes back to automatic.
		{"SetMaxIters", []func(*Problem){
			func(p *Problem) { p.SetMaxIters(1) },
			func(p *Problem) { p.SetMaxIters(0) },
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, capRow, _ := cacheLP(1)
			cold, err := Solve(p)
			if err != nil {
				t.Fatal(err)
			}
			basis := cold.Basis
			if err := p.SetRHS(capRow, 110); err != nil {
				t.Fatal(err)
			}
			warmAgainstFresh(t, "before", p, basis)
			for k, mutate := range tc.mutate {
				if p.warm == nil {
					t.Fatal("warm solve left no ingest")
				}
				mutate(p)
				if p.warm != nil {
					t.Fatalf("mutation %d kept the ingest", k)
				}
				warmAgainstFresh(t, tc.name, p, basis)
			}
		})
	}
}

// A clone never shares its parent's ingest: each re-aims its own.
func TestIngestCacheCloneIndependent(t *testing.T) {
	p, capRow, diffRow := cacheLP(1)
	cold, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	basis := cold.Basis
	if err := p.SetRHS(capRow, 110); err != nil {
		t.Fatal(err)
	}
	warmAgainstFresh(t, "parent", p, basis)
	cached := p.warm

	c := p.Clone()
	if c.warm != nil {
		t.Fatal("Clone copied the ingest")
	}
	if err := c.SetRHS(capRow, 90); err != nil {
		t.Fatal(err)
	}
	if err := c.SetRHS(diffRow, 0.2); err != nil {
		t.Fatal(err)
	}
	warmAgainstFresh(t, "clone", c, basis)
	if c.warm == nil || c.warm == cached {
		t.Fatal("clone did not build an ingest of its own")
	}
	if p.warm != cached {
		t.Fatal("solving the clone replaced the parent's ingest")
	}
	if got := cached.f.b[capRow]; got != 110 {
		t.Fatalf("solving the clone re-aimed the parent's form: cap b = %v", got)
	}
	warmAgainstFresh(t, "parent again", p, basis)
	if p.warm != cached {
		t.Fatal("parent re-solve at unchanged signs rebuilt its ingest")
	}
}

package lp

// Glue between Solve and the internal/lp/presolve pass: convert a Problem
// to the neutral presolve representation, solve the reduced problem, and map
// the solution back to the original index spaces.
// Presolve runs under every solve path; warm-started solves drop to
// ScaleOnly because a warm basis is indexed by the original rows/columns.
//
// Ingest (neutralize → presolve.Run → reducedProblem → newSpForm) is O(nnz).
// A warm solve also keeps its ingest on the Problem: ScaleOnly scaling
// depends only on the matrix, so the next warm solve after RHS-only changes
// re-aims the cached standard form (rhs × RowScale into the reduced row and,
// signed, into spForm.b) instead of rebuilding it. Cold solves and the
// rescue retries always ingest afresh and never touch the cache.

import (
	"math"

	"powercap/internal/lp/presolve"
)

// ingest is one program carried through presolve into standard form: the
// reduction that maps answers back, the reduced problem the simplex solves,
// and that problem's sparse standard form. The solver reads the form
// without writing it (apart from the lazy CSR mirror), so one ingest serves
// any number of warm solves.
type ingest struct {
	red *presolve.Reduction
	rp  *Problem
	f   *spForm
}

// reaim points a cached ScaleOnly ingest at p's current right-hand sides.
// It changes nothing and reports false when some row's RHS changed sign:
// the sign fixes the row's normalization and with it the slack, surplus
// and artificial layout of the standard form. A nil ingest reports false.
func (in *ingest) reaim(p *Problem) bool {
	if in == nil {
		return false
	}
	for i := range p.rows {
		if (p.rows[i].rhs*in.red.RowScale[i] < 0) != (in.f.rowSign[i] < 0) {
			return false
		}
	}
	for i := range p.rows {
		rhs := p.rows[i].rhs * in.red.RowScale[i]
		in.rp.rows[i].rhs = rhs
		in.f.b[i] = in.f.rowSign[i] * rhs
	}
	return true
}

// neutralize snapshots p in the presolve package's representation, every
// row's terms carved from one slab. Nothing is shared mutably: presolve
// copies what it rewrites.
func neutralize(p *Problem) *presolve.Problem {
	nnz := 0
	for _, r := range p.rows {
		nnz += len(r.terms)
	}
	cols := make([]int, nnz)
	vals := make([]float64, nnz)
	np := &presolve.Problem{NumVars: len(p.names), Cost: p.obj}
	np.Rows = make([]presolve.Row, len(p.rows))
	off := 0
	for i, r := range p.rows {
		nr := presolve.Row{
			Rel:  presolve.Rel(r.rel),
			RHS:  r.rhs,
			Cols: cols[off : off+len(r.terms) : off+len(r.terms)],
			Vals: vals[off : off+len(r.terms) : off+len(r.terms)],
		}
		for k, t := range r.terms {
			nr.Cols[k] = int(t.Var)
			nr.Vals[k] = t.Coef
		}
		np.Rows[i] = nr
		off += len(r.terms)
	}
	return np
}

// reducedProblem realizes the reduced neutral problem as an lp.Problem,
// carrying over the sense, pivot budget, and the surviving names.
func reducedProblem(p *Problem, red *presolve.Reduction) *Problem {
	rp := &Problem{
		sense:    p.sense,
		maxIters: p.maxIters,
		names:    make([]string, red.P.NumVars),
		obj:      append([]float64(nil), red.P.Cost...),
		rows:     make([]constraint, len(red.P.Rows)),
	}
	for jn, jo := range red.VarMap {
		rp.names[jn] = p.names[jo]
	}
	nnz := 0
	for _, row := range red.P.Rows {
		nnz += len(row.Cols)
	}
	slab := make([]Term, nnz)
	off := 0
	for in, row := range red.P.Rows {
		terms := slab[off : off+len(row.Cols) : off+len(row.Cols)]
		for k, c := range row.Cols {
			terms[k] = Term{Var: Var(c), Coef: row.Vals[k]}
		}
		off += len(row.Cols)
		rp.rows[in] = constraint{
			name:  p.rows[red.RowMap[in]].name,
			terms: terms,
			rel:   Rel(row.Rel),
			rhs:   row.RHS,
		}
	}
	return rp
}

// emptySolution is the non-optimal terminal shape shared by the presolve
// short circuits (status carries the verdict; X is zeroed at original size).
func emptySolution(p *Problem, st Status) *Solution {
	return &Solution{Status: st, Objective: math.NaN(), X: make([]float64, len(p.names))}
}

// solvePresolved presolves p, solves the reduced problem with solve (the
// revised simplex in production, the dense oracle in tests), and postsolves
// the answer back onto p. A warm solve re-aims p's cached ingest when it
// can and caches a fresh one when it cannot.
func solvePresolved(p *Problem, o *Options, solve func(*Problem, *spForm, *Options) (*Solution, error)) (*Solution, error) {
	warm := len(o.WarmBasis) > 0
	in := p.warm
	if !warm || !in.reaim(p) {
		mode := presolve.Full
		if warm {
			mode = presolve.ScaleOnly
		}
		red := presolve.Run(neutralize(p), mode)
		if sol := presolvedOutright(p, red); sol != nil {
			return sol, nil
		}
		rp := reducedProblem(p, red)
		in = &ingest{red: red, rp: rp, f: newSpForm(rp)}
		if warm {
			p.warm = in
		}
	}

	red := in.red
	sol, err := solve(in.rp, in.f, o)
	if err != nil || sol == nil {
		return sol, err
	}
	sol.Stats.PresolveRows = red.RowsRemoved
	sol.Stats.PresolveCols = red.ColsRemoved
	sol.Stats.RowNormMax = red.RowNormMax
	sol.Stats.RowNormMin = red.RowNormMin
	if sol.Status != Optimal {
		out := emptySolution(p, sol.Status)
		out.Iters = sol.Iters
		out.Stats = sol.Stats
		return out, nil
	}
	out := &Solution{
		Status: Optimal,
		X:      red.PostsolvePrimal(sol.X),
		Dual:   red.PostsolveDual(sol.Dual),
		Iters:  sol.Iters,
		Stats:  sol.Stats,
	}
	if len(sol.Basis) > 0 {
		out.Basis = red.MapBasis(sol.Basis, red.P.NumVars)
	}
	finishObjective(p, red, out)
	return out, nil
}

// presolvedOutright returns the answer when presolve settled p without a
// simplex solve (proven infeasible, every variable eliminated, or no rows
// left), and nil when the reduced problem still needs one.
func presolvedOutright(p *Problem, red *presolve.Reduction) *Solution {
	switch red.Outcome {
	case presolve.OutcomeInfeasible:
		return emptySolution(p, Infeasible)
	case presolve.OutcomeSolved:
		// Eliminations consumed the whole problem; the journal IS the
		// solution.
		sol := &Solution{
			Status: Optimal,
			X:      red.PostsolvePrimal(nil),
			Dual:   red.PostsolveDual(nil),
			Basis:  red.MapBasis(nil, 0),
		}
		finishObjective(p, red, sol)
		return sol
	}
	if len(red.P.Rows) > 0 {
		return nil
	}
	// Unconstrained surviving columns: the optimum pins them at zero
	// unless one improves the objective without limit.
	for jn := range red.P.Cost {
		c := red.P.Cost[jn]
		if (p.sense == Minimize && c < 0) || (p.sense == Maximize && c > 0) {
			return emptySolution(p, Unbounded)
		}
	}
	sol := &Solution{
		Status: Optimal,
		X:      red.PostsolvePrimal(make([]float64, red.P.NumVars)),
		Dual:   red.PostsolveDual(nil),
		Basis:  red.MapBasis(nil, red.P.NumVars),
	}
	finishObjective(p, red, sol)
	return sol
}

// finishObjective evaluates the original objective at the postsolved point.
// (finishSolution is NOT reused here: the simplex already own-sensed the
// reduced duals, and PostsolveDual preserves that sense.)
func finishObjective(p *Problem, _ *presolve.Reduction, sol *Solution) {
	obj := 0.0
	for j, c := range p.obj {
		obj += c * sol.X[j]
	}
	sol.Objective = obj
}

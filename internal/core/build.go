package core

import (
	"context"
	"fmt"

	"powercap/internal/dag"
	"powercap/internal/lp"
	"powercap/internal/machine"
	"powercap/internal/problem"
)

// This file turns the shared problem IR (internal/problem) into concrete
// fixed-vertex-order programs. The emitters below are the single source of
// the formulation's rows; buildLP (continuous), SolveDiscrete (binary), and
// SolveSlackAware (enlarged event set) all assemble from them, so the
// formulations differ only in variable domains and event/power accounting —
// never in how the skeleton is derived from the graph.

// taskLPVars are the configuration-fraction variables of one tunable task,
// over its IR frontier columns.
type taskLPVars struct {
	cols *problem.Columns
	cs   []lp.Var
}

// powerRow records one event-power constraint: its row index in the LP,
// the fixed power already deducted from the cap on its right-hand side
// (rhs = capW − deduct), and its floor: deduct plus every active tunable
// task's lowest frontier power, the least cap the row admits.
type powerRow struct {
	row    int
	deduct float64
	floorW float64
	vertex int
}

// builtLP is a fixed-vertex-order LP built once per graph. The power cap
// capW enters the program only through the right-hand sides of the event
// power rows (Eq. 11), so one builtLP serves a whole cap sweep: each sweep
// point mutates the power-row RHS values in place (Problem.SetRHS) and
// re-solves, warm starting from the previous point's basis.
type builtLP struct {
	ir   *problem.IR
	prob *lp.Problem
	vVar []lp.Var
	tv   map[dag.TaskID]*taskLPVars

	powerRows []powerRow
	// precRows is the row of task 0's precedence row (task t's is
	// precRows+t); orderRows is the row joining EventOrder positions 0
	// and 1 (position i's is orderRows+i−1). The crash basis reads both.
	precRows, orderRows int

	// floorW is the exact feasibility floor: the largest event floor over
	// the power rows and the fixed-only events (which generate no row).
	// A cap below it is infeasible, and at or above it the crash start is
	// feasible (see crash).
	floorW      float64
	floorVertex int
}

// emitSkeleton emits the rows every fixed-vertex-order program shares:
// vertex-time variables with the Init pin (Eqs. 1–2), configuration
// variables over the IR's frontier columns with their convexity rows
// (Eqs. 6–9), and task precedence rows (Eqs. 3–4), one per task in task-ID
// order starting at row precRows. addCfgVar creates each configuration
// variable, letting the MILP substitute binaries (Eq. 5) without
// duplicating the skeleton.
func emitSkeleton(ir *problem.IR, prob *lp.Problem, addCfgVar func(name string, powerW float64) lp.Var) (vVar []lp.Var, tv map[dag.TaskID]*taskLPVars, precRows int) {
	g := ir.G

	vVar = make([]lp.Var, len(g.Vertices))
	for i := range g.Vertices {
		obj := 0.0
		if g.Vertices[i].Kind == dag.VFinalize {
			obj = 1
		}
		vVar[i] = prob.AddVar(fmt.Sprintf("v%d", i), obj)
		if g.Vertices[i].Kind == dag.VInit {
			prob.MustConstraint("init0", lp.Expr{}.Plus(vVar[i], 1), lp.EQ, 0)
		}
	}

	tv = make(map[dag.TaskID]*taskLPVars)
	for _, t := range g.Tasks {
		if ir.Class[t.ID] != problem.Tunable {
			continue
		}
		cols := ir.Cols[t.ID]
		v := &taskLPVars{cols: cols, cs: make([]lp.Var, len(cols.F.Pts))}
		var convex lp.Expr
		for k, p := range cols.F.Pts {
			v.cs[k] = addCfgVar(fmt.Sprintf("c%d_%d", t.ID, k), p.PowerW)
			convex = convex.Plus(v.cs[k], 1)
		}
		prob.MustConstraint(fmt.Sprintf("cvx%d", t.ID), convex, lp.EQ, 1)
		tv[t.ID] = v
	}

	// Task precedence (Eqs. 3–4 with s and d substituted):
	// v_dst − v_src ≥ Σ_k d_{i,k} c_{i,k}  (or the fixed duration).
	precRows = prob.NumConstraints()
	for _, t := range g.Tasks {
		expr := lp.Expr{}.Plus(vVar[t.Dst], 1).Plus(vVar[t.Src], -1)
		rhs := 0.0
		switch ir.Class[t.ID] {
		case problem.Message:
			rhs = t.FixedDur
		case problem.Fixed:
			// ≥ 0: ordering only.
		case problem.Tunable:
			v := tv[t.ID]
			for k := range v.cs {
				expr = expr.Plus(v.cs[k], -v.cols.Durs[k])
			}
		}
		prob.MustConstraint(fmt.Sprintf("prec%d", t.ID), expr, lp.GE, rhs)
	}
	return vVar, tv, precRows
}

// emitEventOrder emits the fixed event order (Eqs. 12–13): the IR's
// vertices chained in initial-time order, simultaneous events pinned equal.
// The row joining positions i−1 and i is orderRows+i−1.
func emitEventOrder(ir *problem.IR, prob *lp.Problem, vVar []lp.Var) (orderRows int) {
	orderRows = prob.NumConstraints()
	for i := 1; i < len(ir.EventOrder); i++ {
		prev, cur := ir.EventOrder[i-1], ir.EventOrder[i]
		expr := lp.Expr{}.Plus(vVar[cur], 1).Plus(vVar[prev], -1)
		if ir.Simultaneous(prev, cur) {
			prob.MustConstraint(fmt.Sprintf("eq%d", i), expr, lp.EQ, 0)
		} else {
			prob.MustConstraint(fmt.Sprintf("ord%d", i), expr, lp.GE, 0)
		}
	}
	return orderRows
}

// emitPowerRows emits one event-power row per vertex with a tunable active
// task (Eqs. 10–11 with P_j substituted): the powers of the active tasks
// sum to at most PC, with constant draws of degenerate tasks moved to the
// right-hand side. Rows are emitted at their deduction-only baseline
// (cap 0); callers aim them at a concrete cap through SetRHS.
//
// It also returns the exact feasibility floor. The fixed vertex order fixes
// each event's active set, so an event draws least when every active
// tunable task runs its lowest-power frontier point (position 0): no cap
// below deduct + Σ lowest power is feasible at that event. Events with only
// fixed draws yield no row but count toward the floor all the same. The
// timing rows never bind feasibility (ASAP times satisfy them, see crash),
// so the largest event floor is the least feasible cap.
func emitPowerRows(ir *problem.IR, prob *lp.Problem, tv map[dag.TaskID]*taskLPVars) (rows []powerRow, floorW float64, floorVertex int) {
	floorVertex = -1
	for vi := range ir.G.Vertices {
		var expr lp.Expr
		deduct, lowest := 0.0, 0.0
		for _, tid := range ir.Active[vi] {
			if v, ok := tv[tid]; ok {
				for k := range v.cs {
					expr = expr.Plus(v.cs[k], v.cols.F.Pts[k].PowerW)
				}
				lowest += v.cols.F.Pts[0].PowerW
			} else {
				deduct += ir.FixedPowerW[tid]
			}
		}
		if deduct+lowest > floorW {
			floorW = deduct + lowest
			floorVertex = vi
		}
		if len(expr) == 0 {
			continue
		}
		rows = append(rows, powerRow{
			row:    prob.NumConstraints(),
			deduct: deduct,
			floorW: deduct + lowest,
			vertex: vi,
		})
		prob.MustConstraint(fmt.Sprintf("pow%d", vi), expr, lp.LE, -deduct)
	}
	return rows, floorW, floorVertex
}

// floorError is the ErrInfeasible a cap below the feasibility floor earns,
// naming the event whose lowest-power draw exceeds it.
func floorError(capW, floorW float64, vertex int) error {
	return fmt.Errorf("%w: cap %.3f W is below the %.3f W power floor of event %d", ErrInfeasible, capW, floorW, vertex)
}

// buildLP constructs the cap-independent LP for graph g: variables,
// precedence, event-order, and event-power rows, with the power-row RHS
// values left at their deduction-only baseline (cap 0). ctx carries obs
// span parentage only.
func (s *Solver) buildLP(ctx context.Context, g *dag.Graph) (*builtLP, error) {
	ir, err := s.IRCtx(ctx, g)
	if err != nil {
		return nil, err
	}
	return s.buildFromIR(ir), nil
}

// buildFromIR emits the continuous LP from an already-built IR.
func (s *Solver) buildFromIR(ir *problem.IR) *builtLP {
	b := &builtLP{ir: ir, prob: lp.NewProblem(lp.Minimize)}
	// Configuration-fraction variables carry the power tiebreak on the
	// objective (see Solver.PowerTiebreak).
	b.vVar, b.tv, b.precRows = emitSkeleton(ir, b.prob, func(name string, powerW float64) lp.Var {
		return b.prob.AddVar(name, s.PowerTiebreak*powerW)
	})
	b.orderRows = emitEventOrder(ir, b.prob, b.vVar)
	b.powerRows, b.floorW, b.floorVertex = emitPowerRows(ir, b.prob, b.tv)
	return b
}

// solveBuilt re-aims the built LP at capW and solves it (see solveLP),
// warm starting from warmBasis when one is supplied and from the crash
// basis otherwise. A cap below the floor is infeasible without a solve.
func (s *Solver) solveBuilt(ctx context.Context, b *builtLP, capW float64, warmBasis []int, st *Stats) (*lp.Solution, error) {
	if capW < b.floorW {
		return nil, floorError(capW, b.floorW, b.floorVertex)
	}
	for _, pr := range b.powerRows {
		if err := b.prob.SetRHS(pr.row, capW-pr.deduct); err != nil {
			return nil, err
		}
	}
	if len(warmBasis) == 0 {
		warmBasis = b.crash(capW)
	}
	return s.solveLP(ctx, b.prob, warmBasis, st, func() string { return fmt.Sprintf("cap %.1f W", capW) })
}

// crash returns a primal-feasible starting basis for the LP aimed at capW
// (≥ floorW), so the simplex skips phase 1 (DESIGN.md §7). The start point
// is a schedule the IR already knows:
//
//   - every tunable task at frontier point 0, its lowest power, then, in
//     task-ID order, raised along its frontier while every power row it is
//     active in stays within capW − deduct;
//   - vertex times ASAP over the simultaneous groups of EventOrder, using
//     the chosen points' durations.
//
// The basis is every v, each task's chosen c, and the auxiliary of every
// row except init0, the cvx rows, the eq rows and each group's binding row
// (the ord or prec row that sets the group's ASAP time). It is triangular
// by construction. crash returns nil — and the solve runs cold — when the
// timing rows cannot be met (a positive duration inside one simultaneous
// group) or the basis does not cover every row (more than one Init pin).
func (b *builtLP) crash(capW float64) []int {
	ir, g := b.ir, b.ir.G
	order := ir.EventOrder

	// Start point. rowsOf lists, per task, the vertices of the power rows
	// it is active in (CSR by task ID); slack is each row's headroom.
	rowsOf := make([]int, len(g.Tasks)+1)
	for _, pr := range b.powerRows {
		for _, tid := range ir.Active[pr.vertex] {
			rowsOf[tid+1]++
		}
	}
	for i := range g.Tasks {
		rowsOf[i+1] += rowsOf[i]
	}
	rowVertex := make([]int, rowsOf[len(g.Tasks)])
	fill := append([]int(nil), rowsOf[:len(g.Tasks)]...)
	slack := make([]float64, len(g.Vertices))
	for _, pr := range b.powerRows {
		slack[pr.vertex] = capW - pr.floorW
		for _, tid := range ir.Active[pr.vertex] {
			rowVertex[fill[tid]] = pr.vertex
			fill[tid]++
		}
	}
	point := make([]int, len(g.Tasks))
	for tid := range g.Tasks {
		v, ok := b.tv[dag.TaskID(tid)]
		if !ok {
			continue
		}
		rows := rowVertex[rowsOf[tid]:rowsOf[tid+1]]
	raise:
		for k := 0; k+1 < len(v.cs); k++ {
			dW := v.cols.F.Pts[k+1].PowerW - v.cols.F.Pts[k].PowerW
			for _, vi := range rows {
				if slack[vi] < dW {
					break raise
				}
			}
			for _, vi := range rows {
				slack[vi] -= dW
			}
			point[tid] = k + 1
		}
	}

	// Simultaneous groups of EventOrder: group[v] numbers v's group, and
	// starts[gi] is the position where group gi begins.
	group := make([]int, len(g.Vertices))
	starts := []int{0}
	for i := 1; i < len(order); i++ {
		if !ir.Simultaneous(order[i-1], order[i]) {
			starts = append(starts, i)
		}
		group[order[i]] = len(starts) - 1
	}
	// Tasks bucketed by their destination's group (counting sort).
	into := make([]int, len(starts)+1)
	for _, t := range g.Tasks {
		into[group[t.Dst]+1]++
	}
	for gi := range starts {
		into[gi+1] += into[gi]
	}
	byDst := make([]dag.TaskID, len(g.Tasks))
	fill = append(fill[:0], into[:len(starts)]...)
	for _, t := range g.Tasks {
		byDst[fill[group[t.Dst]]] = t.ID
		fill[group[t.Dst]]++
	}

	// ASAP times. A group's time is the later of its predecessor group's
	// (its ord row binds) and each incoming task's end (that task's prec
	// row binds); init0 pins group 0 at zero.
	times := make([]float64, len(g.Vertices))
	precTight := make([]bool, len(g.Tasks))
	ordTight := make([]bool, len(starts))
	tg := 0.0
	for gi := range starts {
		bind := -1 // task whose prec row binds; -1 for the ord row
		for _, tid := range byDst[into[gi]:into[gi+1]] {
			t := &g.Tasks[tid]
			d := 0.0
			switch ir.Class[tid] {
			case problem.Message:
				d = t.FixedDur
			case problem.Tunable:
				d = b.tv[tid].cols.Durs[point[tid]]
			}
			if group[t.Src] == gi {
				if d > 0 {
					return nil // the timing rows cannot be met
				}
				continue
			}
			if end := times[t.Src] + d; end > tg {
				tg, bind = end, int(tid)
			}
		}
		if bind >= 0 {
			precTight[bind] = true
		} else {
			ordTight[gi] = true
		}
		end := len(order)
		if gi+1 < len(starts) {
			end = starts[gi+1]
		}
		for _, vx := range order[starts[gi]:end] {
			times[vx] = tg
		}
	}

	// The basis: every v, each chosen c, and the auxiliaries (encoded
	// NumVars+row) of the prec and ord rows that do not bind and of every
	// power row.
	nv := b.prob.NumVars()
	basis := make([]int, 0, b.prob.NumConstraints())
	for _, v := range b.vVar {
		basis = append(basis, int(v))
	}
	for tid := range g.Tasks {
		if v, ok := b.tv[dag.TaskID(tid)]; ok {
			basis = append(basis, int(v.cs[point[tid]]))
		}
		if !precTight[tid] {
			basis = append(basis, nv+b.precRows+tid)
		}
	}
	for gi := 1; gi < len(starts); gi++ {
		if !ordTight[gi] {
			basis = append(basis, nv+b.orderRows+starts[gi]-1)
		}
	}
	for _, pr := range b.powerRows {
		basis = append(basis, nv+pr.row)
	}
	if len(basis) != b.prob.NumConstraints() {
		return nil
	}
	return basis
}

// solveLP is core's one call into lp.Solve: it solves prob on the Solver's
// engine, warm starting from basis when one is supplied, and folds the
// effort into st. The returned solution is always Optimal; infeasibility
// surfaces as ErrInfeasible, and a canceled ctx as an error wrapping
// ctx.Err() (so errors.Is against context.Canceled/DeadlineExceeded works).
// where names the program in error messages. Numerical breakdowns are
// rescued inside lp.Solve; one that survives the rescue is returned as is.
func (s *Solver) solveLP(ctx context.Context, prob *lp.Problem, basis []int, st *Stats, where func() string) (*lp.Solution, error) {
	opts := []lp.Option{lp.WithEngine(s.Engine), lp.WithSpanContext(ctx)}
	if len(basis) > 0 {
		opts = append(opts, lp.WithWarmBasis(basis))
	}
	if ctx != nil && ctx != context.Background() {
		opts = append(opts, lp.WithContext(ctx))
	}
	sol, err := lp.Solve(prob, opts...)
	if err != nil {
		return nil, err
	}
	addSolve(st, sol)

	switch sol.Status {
	case lp.Optimal:
		return sol, nil
	case lp.Infeasible:
		return nil, fmt.Errorf("%w: %s", ErrInfeasible, where())
	case lp.Canceled:
		cause := context.Canceled
		if ctx != nil && ctx.Err() != nil {
			cause = ctx.Err()
		}
		return nil, fmt.Errorf("core: solve canceled after %d pivots (%s): %w", sol.Iters, where(), cause)
	default:
		return nil, fmt.Errorf("core: LP solver returned %v (%s)", sol.Status, where())
	}
}

// extractInto reads an Optimal solution back into schedule fields: vertex
// times, the power shadow price, and per-task choices (through taskMap).
func (s *Solver) extractInto(b *builtLP, sol *lp.Solution, out *Schedule, taskMap []dag.TaskID, vt []float64) {
	g := b.ir.G
	for i := range g.Vertices {
		vt[i] = sol.Value(b.vVar[i])
	}
	// Raising PC relaxes every event-power row at once, so the makespan
	// sensitivity is the sum of their duals.
	for _, pr := range b.powerRows {
		out.MarginalSecPerW += sol.DualOf(pr.row)
	}

	for _, t := range g.Tasks {
		choice := TaskChoice{}
		switch b.ir.Class[t.ID] {
		case problem.Message:
			choice.DurationS = t.FixedDur
		case problem.Fixed:
			choice.PowerW = b.ir.FixedPowerW[t.ID]
			choice.DiscretePowerW = b.ir.FixedPowerW[t.ID]
			choice.Discrete = machine.Config{FreqGHz: s.Model.FreqMinGHz, Threads: 1}
		case problem.Tunable:
			v := b.tv[t.ID]
			f := v.cols.F
			const fracTol = 1e-9
			for k, cv := range v.cs {
				frac := sol.Value(cv)
				if frac <= fracTol {
					continue
				}
				choice.Mix = append(choice.Mix, MixEntry{
					Config:    f.Cfgs[k],
					Frac:      frac,
					DurationS: v.cols.Durs[k],
					PowerW:    f.Pts[k].PowerW,
				})
				choice.DurationS += frac * v.cols.Durs[k]
				choice.PowerW += frac * f.Pts[k].PowerW
			}
			// Discrete rounding: nearest frontier point by power.
			if idx, ok := f.Nearest(choice.PowerW); ok {
				choice.Discrete = f.Cfgs[idx]
				choice.DiscreteDurationS = v.cols.Durs[idx]
				choice.DiscretePowerW = f.Pts[idx].PowerW
			}
		}
		out.Choices[taskMap[t.ID]] = choice
	}
}

// solveInto builds and solves the LP for graph g under capW, writing task
// choices through taskMap into out.Choices and vertex times into vt.
func (s *Solver) solveInto(ctx context.Context, g *dag.Graph, capW float64, out *Schedule, taskMap []dag.TaskID, vt []float64) error {
	b, err := s.buildLP(ctx, g)
	if err != nil {
		return err
	}
	sol, err := s.solveBuilt(ctx, b, capW, nil, &out.Stats)
	if err != nil {
		return err
	}
	s.extractInto(b, sol, out, taskMap, vt)
	return nil
}

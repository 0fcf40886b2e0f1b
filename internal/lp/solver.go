package lp

import (
	"context"
	"errors"
	"fmt"
	"time"

	"powercap/internal/faultinject"
	"powercap/internal/obs"
)

// This file defines the solver entry point: Solve, the options that tune it
// (basis engine, pivot budget, warm basis, cancellation), and the
// problem-space basis encoding that lets one solve warm start the next (see
// DESIGN.md "Solver engine architecture").

// ErrInfeasible is the package-level infeasibility sentinel. Solve itself
// reports infeasibility through Solution.Status (a malformed problem is the
// only error condition), but higher layers wrap this sentinel so that
// errors.Is(err, lp.ErrInfeasible) holds through core, flowilp, and the
// public powercap API.
var ErrInfeasible = errors.New("lp: infeasible")

// Engine selects the basis-inverse implementation (see internal/lp/basis).
type Engine int

const (
	// EngineAuto picks the default engine (currently the sparse LU) and is
	// the only setting under which Solve may rescue an LU breakdown on the
	// eta engine.
	EngineAuto Engine = iota
	// EngineLU is the Markowitz-ordered sparse LU factorization with
	// eta-on-LU pivot updates — the default.
	EngineLU
	// EngineEta is the product-form-of-the-inverse eta file: the engine
	// Solve retries on after an LU numerical breakdown under EngineAuto
	// (DESIGN.md §14 lists the measured rescues).
	EngineEta
)

// resolve maps EngineAuto to the concrete default.
func (e Engine) resolve() Engine {
	if e == EngineAuto {
		return EngineLU
	}
	return e
}

// String names the engine.
func (e Engine) String() string {
	switch e.resolve() {
	case EngineLU:
		return "lu"
	case EngineEta:
		return "eta"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// Options collects per-solve settings. Construct via Option functions.
type Options struct {
	// Engine selects the basis-inverse engine (default EngineAuto → LU,
	// with the eta rescue).
	Engine Engine
	// MaxIters overrides the pivot budget (0 = automatic, proportional to
	// problem size; Problem.SetMaxIters applies when this is 0).
	MaxIters int
	// StallWindow is how many non-improving pivots are tolerated before
	// switching to Bland's anti-cycling rule (0 = default 200).
	StallWindow int
	// NoPresolve disables the presolve/scaling pass (internal/lp/presolve)
	// and solves the stated problem directly. Intended for tests and
	// A/B instrumentation; presolve is semantically invisible otherwise.
	NoPresolve bool
	// WarmBasis is a starting basis in the Solution.Basis encoding: a
	// previous optimum's for a problem with the same variables and a
	// prefix of the same rows (RHS values and appended rows may differ),
	// repaired by dual simplex, or any primal-feasible basis, which starts
	// primal phase 2. The solver falls back to a cold solve if the basis
	// is unusable, so a stale or mismatched basis costs time, never
	// correctness.
	WarmBasis []int
	// Ctx, when non-nil, lets the caller abandon a solve mid-pivot: the
	// pivot loops poll ctx.Err() every cancelCheckEvery iterations and
	// return Status Canceled once it is non-nil. Long-running services
	// thread per-request deadlines through here so an abandoned request
	// stops burning simplex pivots.
	Ctx context.Context
	// SpanCtx, when non-nil, carries obs span parentage only — it never
	// feeds cancellation. Callers that want both pass the same context to
	// WithContext and WithSpanContext; callers that must preserve the
	// "background context means no cancel polling" fast path (internal/core)
	// can trace without arming the polls.
	SpanCtx context.Context
}

// Option mutates Options.
type Option func(*Options)

// WithEngine pins the basis-inverse engine. A pinned engine is never
// switched by Solve's rescue; leave the default EngineAuto to allow the
// eta rescue after an LU breakdown. Intended for engine comparisons and
// tests.
func WithEngine(e Engine) Option { return func(o *Options) { o.Engine = e } }

// WithMaxIters overrides the pivot budget for this solve.
func WithMaxIters(n int) Option { return func(o *Options) { o.MaxIters = n } }

// WithStallWindow overrides the stall threshold that engages Bland's rule.
func WithStallWindow(n int) Option { return func(o *Options) { o.StallWindow = n } }

// WithoutPresolve disables the presolve/scaling pass for this solve.
func WithoutPresolve() Option { return func(o *Options) { o.NoPresolve = true } }

// WithWarmBasis supplies a starting basis from a previous Solution.Basis.
func WithWarmBasis(basis []int) Option { return func(o *Options) { o.WarmBasis = basis } }

// WithContext makes the solve cancelable: when ctx is canceled or its
// deadline passes, the pivot loops stop at their next poll and the solve
// returns Status Canceled.
func WithContext(ctx context.Context) Option { return func(o *Options) { o.Ctx = ctx } }

// WithSpanContext supplies the context obs spans parent onto, without
// enabling cancellation polling. With tracing disarmed this costs nothing.
func WithSpanContext(ctx context.Context) Option { return func(o *Options) { o.SpanCtx = ctx } }

// spanContext resolves where solver spans should parent: the explicit span
// context if set, else the cancellation context. May be nil (obs.Start
// accepts nil and falls back to the global trace).
func (o *Options) spanContext() context.Context {
	if o.SpanCtx != nil {
		return o.SpanCtx
	}
	return o.Ctx
}

// cancelCheckEvery is how many pivots pass between context polls. Polling
// is one atomic load inside ctx.Err(), but scheduling-LP pivots can be
// microseconds, so the loops amortize the check.
const cancelCheckEvery = 32

// cancelFunc converts an Options context into a poll closure for the pivot
// loops (nil when no context was supplied).
func (o *Options) cancelFunc() func() bool {
	if o.Ctx == nil {
		return nil
	}
	ctx := o.Ctx
	return func() bool { return ctx.Err() != nil }
}

// SolveStats instruments one Solve call.
type SolveStats struct {
	// Engine names the basis-inverse engine that produced the answer ("lu"
	// or "eta"; empty when presolve solved the problem outright).
	Engine string `json:",omitempty"`
	// Rescues counts the extra attempts Solve made after numerical
	// breakdowns before this answer (0 for an unbroken solve).
	Rescues int `json:",omitempty"`
	// Phase1Iters and Phase2Iters count primal simplex pivots per phase;
	// DualIters counts dual simplex pivots (warm starts only).
	Phase1Iters int
	Phase2Iters int
	DualIters   int
	// Refactorizations counts basis reinversions.
	Refactorizations int
	// PresolveRows and PresolveCols count the rows/columns the presolve
	// pass eliminated before the simplex ran.
	PresolveRows int `json:",omitempty"`
	PresolveCols int `json:",omitempty"`
	// WarmStarted reports whether a supplied warm basis was actually used
	// (false when it was absent or unusable).
	WarmStarted bool
	// BlandActivated reports whether the anti-cycling fallback engaged;
	// BlandActivations counts how many times it switched on (it can engage,
	// relax on objective progress, and re-engage within one solve).
	BlandActivated   bool
	BlandActivations int `json:",omitempty"`
	// MaxEtaLen is the peak basis-update (eta) file length — the growth
	// proxy for basis conditioning.
	MaxEtaLen int `json:",omitempty"`
	// PivotRejections counts factorization rows the LU engine's threshold
	// (Markowitz-tie-broken) pivoting rejected; FactorTauRetries counts
	// factorizations retried under strict partial pivoting after the
	// relaxed threshold hit a vanishing pivot.
	PivotRejections  int `json:",omitempty"`
	FactorTauRetries int `json:",omitempty"`
	// NaNRecoveries counts refactorize-and-retry repairs of non-finite
	// working state (see revised.recoverNumerical).
	NaNRecoveries int `json:",omitempty"`
	// RowNormMax and RowNormMin are the extreme row norms (max-abs per row)
	// of the constraint matrix handed to the simplex after presolve
	// scaling; their ratio is the scaling condition proxy.
	RowNormMax float64 `json:",omitempty"`
	RowNormMin float64 `json:",omitempty"`
	// Wall is the end-to-end solve time.
	Wall time.Duration
}

// RowNormRatio is the scaling condition proxy: max/min row norm of the
// matrix the simplex actually factorized (0 when unknown).
func (s SolveStats) RowNormRatio() float64 {
	if s.RowNormMin <= 0 {
		return 0
	}
	return s.RowNormMax / s.RowNormMin
}

// Pivots is the total pivot count across phases.
func (s SolveStats) Pivots() int { return s.Phase1Iters + s.Phase2Iters + s.DualIters }

// Basis encoding: Solution.Basis has one entry per constraint row, naming
// the variable basic in that row in problem space:
//
//   - an entry v < NumVars() is the structural variable v;
//   - an entry NumVars()+r is row r's canonical auxiliary variable (the
//     slack of a ≤ row, the surplus of a ≥ row, the artificial of an = row).
//
// The encoding is stable under appending rows (existing entries keep their
// meaning), which is what lets branch-and-bound warm start child nodes from
// the parent basis: rows added for branches simply take their own auxiliary
// as the initial basic variable.

// Solve runs the sparse revised simplex (steepest-edge pricing, the
// engine selected by WithEngine) on p after the presolve/scaling pass. The
// returned error is non-nil only for malformed problems and numerical
// breakdowns that survive the rescue (*NumericalError); infeasibility and
// unboundedness are reported through Solution.Status.
//
// Solve is the one place a numerical breakdown is handled. After a
// *NumericalError it retries in a fixed order, each retry counted in
// Stats.Rescues:
//
//  1. a warm-started solve retries cold on the same engine (full presolve,
//     no basis): the stale basis, not the program, is the usual culprit;
//  2. under EngineAuto, a cold LU breakdown retries cold on EngineEta,
//     which shares the pivot loops but none of the LU's factorization
//     numerics (DESIGN.md §14 lists the measured rescues).
//
// A pinned engine (EngineLU, EngineEta) never switches: it gets only the
// cold retry. A rescued answer is the same certified optimum an unbroken
// solve reports.
func Solve(p *Problem, opts ...Option) (*Solution, error) {
	if len(p.names) == 0 {
		return nil, ErrNoVariables
	}
	o := resolveOptions(p, opts)
	if faultinject.Armed() && faultinject.Fire(faultinject.SlowSolve) {
		sleepSlow(o.Ctx)
	}

	sctx, span := obs.Start(o.spanContext(), "lp.solve")
	defer span.End()
	span.SetAttr("vars", p.NumVars())
	span.SetAttr("rows", p.NumConstraints())
	o.SpanCtx = sctx // phase spans parent under lp.solve

	start := time.Now()
	sol, err := solveAttempt(p, &o)
	rescues := 0
	if isNumerical(err) && len(o.WarmBasis) > 0 {
		o.WarmBasis = nil
		rescues++
		sol, err = solveAttempt(p, &o)
	}
	if isNumerical(err) && o.Engine == EngineAuto {
		o.Engine = EngineEta
		rescues++
		sol, err = solveAttempt(p, &o)
	}
	span.SetAttr("engine", o.Engine.String())
	span.SetAttr("rescues", rescues)
	if err != nil {
		return nil, err
	}
	sol.Stats.Rescues = rescues
	sol.Stats.Wall = time.Since(start)
	span.SetAttr("status", sol.Status.String())
	span.SetAttr("pivots", sol.Stats.Pivots())
	return sol, nil
}

// isNumerical reports whether err is a *NumericalError. The nil check comes
// first so an unbroken solve pays nothing for it.
func isNumerical(err error) bool {
	if err == nil {
		return false
	}
	var ne *NumericalError
	return errors.As(err, &ne)
}

// solveAttempt is one solve attempt under fixed options: presolve (unless
// disabled), the revised simplex, postsolve. A package variable so tests
// can observe and script the attempts Solve's rescue makes.
var solveAttempt = func(p *Problem, o *Options) (*Solution, error) {
	if o.NoPresolve {
		return solveSparse(p, newSpForm(p), o)
	}
	return solvePresolved(p, o, solveSparse)
}

// resolveOptions applies opts over the defaults for p.
func resolveOptions(p *Problem, opts []Option) Options {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	if o.MaxIters == 0 {
		o.MaxIters = p.maxIters
	}
	if o.StallWindow == 0 {
		o.StallWindow = stallWindow
	}
	return o
}

// sleepSlow implements the SlowSolve fault: a context-aware delay of the
// configured duration, injected before the simplex runs so per-rung deadline
// slices in internal/resilience get exercised.
func sleepSlow(ctx context.Context) {
	d := faultinject.SlowDelay()
	if d <= 0 {
		return
	}
	if ctx == nil {
		time.Sleep(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// finishSolution fills the sense-dependent fields of a finished solve:
// the objective in the problem's own sense (from the extracted primal
// point) and the dual sign flip for maximization problems.
func finishSolution(p *Problem, sol *Solution) {
	obj := 0.0
	for j, c := range p.obj {
		obj += c * sol.X[j]
	}
	sol.Objective = obj
	if p.sense == Maximize {
		// The simplex minimizes internally; undo the cost negation on duals.
		for i := range sol.Dual {
			sol.Dual[i] = -sol.Dual[i]
		}
	}
}

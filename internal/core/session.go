package core

import (
	"context"

	"powercap/internal/dag"
)

// CapSession is the warm re-solve entry for cap-only changes: one graph's
// whole-graph LP, built once, re-aimed at arbitrary caps. The cap enters the
// fixed-vertex-order program only through the right-hand sides of the event
// power rows, so every SolveAt after the first mutates those RHS values in
// place and warm starts from the previous successful solve's basis — the old
// basis stays dual feasible under an RHS-only change, so a few dual simplex
// pivots repair it instead of a full two-phase solve. Unlike SolveSweep,
// the caps need not be known up front: the cluster power market
// (internal/market) probes each job's power–time curve adaptively, asking
// for whatever cap its last transfer produced.
//
// A CapSession is NOT safe for concurrent use; it belongs to one caller
// (the market holds one session per job). The underlying Solver's shared
// IR and frontier caches are still used, so opening a session on a graph
// the Solver has already seen costs no rebuild.
type CapSession struct {
	s     *Solver
	g     *dag.Graph
	b     *builtLP
	basis []int
	stats Stats
}

// NewCapSession builds the whole-graph LP for g once and returns a session
// whose SolveAt re-solves it at arbitrary caps with warm starts. ctx carries
// obs span parentage for the (possibly cached) IR build.
func (s *Solver) NewCapSession(ctx context.Context, g *dag.Graph) (*CapSession, error) {
	b, err := s.buildLP(ctx, g)
	if err != nil {
		return nil, err
	}
	return &CapSession{s: s, g: g, b: b}, nil
}

// FloorW is the exact feasibility floor, computed when the LP is built:
// the largest event draw with every active tunable task at its
// lowest-power configuration. SolveAt is feasible at every cap ≥ FloorW
// and returns ErrInfeasible, without a solve, below it.
func (cs *CapSession) FloorW() float64 { return cs.b.floorW }

// Stats reports the solver effort accumulated across every SolveAt of this
// session (including failed and infeasible probes).
func (cs *CapSession) Stats() Stats { return cs.stats }

// SolveAt re-aims the session's LP at capW and solves it, warm starting
// from the last successful solve's basis (the first solve starts from the
// crash basis). Caps below FloorW return ErrInfeasible without a solve. A
// numerical breakdown is rescued inside lp.Solve; one that survives the
// rescue surfaces as the typed *lp.NumericalError.
func (cs *CapSession) SolveAt(ctx context.Context, capW float64) (*Schedule, error) {
	sched := &Schedule{
		CapW:        capW,
		Choices:     make([]TaskChoice, len(cs.g.Tasks)),
		VertexTimeS: make([]float64, len(cs.g.Vertices)),
	}
	sol, err := cs.s.solveBuilt(ctx, cs.b, capW, cs.basis, &sched.Stats)
	cs.stats.Add(sched.Stats)
	if err != nil {
		return nil, err
	}
	cs.s.extractInto(cs.b, sol, sched, identityTaskMap(len(cs.g.Tasks)), sched.VertexTimeS)
	sched.MakespanS = finalizeTime(cs.g, sched.VertexTimeS)
	if len(sol.Basis) > 0 {
		cs.basis = append(cs.basis[:0], sol.Basis...)
	}
	return sched, nil
}

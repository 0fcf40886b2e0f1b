// Package problem builds the canonical intermediate representation (IR) of
// one power-constrained scheduling instance — the paper's Sec. 3.3 problem
// skeleton — exactly once per (graph, machine model, efficiency scales) and
// independently of any power cap, so that every formulation (the LP, the
// slack-aware LP, MILP branch and bound, flow ILP) and
// the realization/validation pipeline consume one shared build instead of
// each assembling a private representation.
//
// The IR carries:
//
//   - the power-unconstrained initial schedule (every task at the maximum
//     configuration) that fixes the event order and activity sets;
//   - the per-vertex activity sets R_j — which compute tasks pay power at
//     which events — derived through the shared Occupancy boundary rule;
//   - the event order: vertices sorted by initial time, ties pinned equal;
//   - per-task classification (message / fixed degenerate / tunable) with
//     each tunable task's Pareto-frontier columns (work-scaled durations
//     and configuration powers) and each degenerate task's constant draw.
//
// Everything in the IR is immutable after Build and safe to share across
// goroutines; the power cap enters only when a backend turns the IR into a
// concrete program (it shifts constraint right-hand sides, never the
// skeleton), which is what lets cap sweeps and the scheduling service reuse
// one build across every cap.
package problem

import (
	"context"
	"sort"

	"powercap/internal/dag"
	"powercap/internal/machine"
	"powercap/internal/obs"
	"powercap/internal/sim"
)

// TaskClass partitions tasks by how they enter the formulation.
type TaskClass int8

const (
	// Message tasks have a fixed duration and no socket power.
	Message TaskClass = iota
	// Fixed tasks are degenerate compute edges (zero work — a rank passing
	// straight between two MPI calls): instantaneous, drawing idle power
	// through their slack window.
	Fixed
	// Tunable tasks choose (or mix) configurations from their frontier.
	Tunable
)

// Columns are one tunable task's frontier columns: position k runs the task
// in F.Cfgs[k], taking Durs[k] seconds at F.Pts[k].PowerW watts.
type Columns struct {
	F    *Frontier
	Durs []float64 // F.Pts[k].TimeS scaled by task work
}

// IR is the shared, cap-independent problem representation.
type IR struct {
	G         *dag.Graph
	Frontiers *FrontierSet

	// Init is the power-unconstrained initial schedule fixing event order
	// and activity sets (Sec. 3.3).
	Init *sim.Result
	// Occ indexes Init for per-rank occupancy-window lookups.
	Occ *Occupancy
	// Active is the activity set R_j per vertex: the tasks charged for
	// power at that event, one per rank with compute tasks.
	Active [][]dag.TaskID
	// EventOrder is the vertices in fixed event order: sorted by initial
	// time, ties broken by vertex ID (and pinned simultaneous by Eq. 13).
	EventOrder []dag.VertexID

	// Class classifies each task; Cols is non-nil exactly for Tunable
	// tasks; FixedPowerW is the constant draw of Fixed tasks.
	Class       []TaskClass
	Cols        []*Columns
	FixedPowerW []float64
}

// Build constructs the IR for g against model and effScale. Equivalent to
// BuildWith(NewFrontierSet(model, effScale), g).
func Build(model *machine.Model, effScale []float64, g *dag.Graph) (*IR, error) {
	return BuildWith(NewFrontierSet(model, effScale), g)
}

// BuildWith constructs the IR for g, computing frontiers through fs — use
// one FrontierSet across many builds (iteration slices, multiple graphs on
// one System) to share the per-(shape, rank) frontier work.
func BuildWith(fs *FrontierSet, g *dag.Graph) (*IR, error) {
	return BuildWithCtx(context.Background(), fs, g)
}

// BuildWithCtx is BuildWith with obs span parentage: the build itself, the
// initial-schedule simulation, and any frontier constructions it triggers
// record as spans under ctx.
func BuildWithCtx(ctx context.Context, fs *FrontierSet, g *dag.Graph) (*IR, error) {
	ctx, span := obs.Start(ctx, "problem.build")
	defer span.End()
	span.SetAttr("tasks", len(g.Tasks))
	span.SetAttr("vertices", len(g.Vertices))

	init, err := initialSchedule(ctx, fs, g)
	if err != nil {
		return nil, err
	}
	ir := &IR{
		G:           g,
		Frontiers:   fs,
		Init:        init,
		Occ:         NewOccupancy(g, init),
		Class:       make([]TaskClass, len(g.Tasks)),
		Cols:        make([]*Columns, len(g.Tasks)),
		FixedPowerW: make([]float64, len(g.Tasks)),
	}

	for _, t := range g.Tasks {
		switch {
		case t.Kind == dag.Message:
			ir.Class[t.ID] = Message
		case t.Work <= 0:
			ir.Class[t.ID] = Fixed
			ir.FixedPowerW[t.ID] = fs.model.IdlePower(fs.Eff(t.Rank))
		default:
			ir.Class[t.ID] = Tunable
			f := fs.ForCtx(ctx, t.Shape, t.Rank)
			durs := make([]float64, len(f.Pts))
			for k, p := range f.Pts {
				durs[k] = p.TimeS * t.Work
			}
			ir.Cols[t.ID] = &Columns{F: f, Durs: durs}
		}
	}

	// Activity sets (Sec. 3.3): per event, the task occupying each rank.
	ir.Active = make([][]dag.TaskID, len(g.Vertices))
	for vi := range g.Vertices {
		tj := init.VertexTime[vi]
		for r := 0; r < g.NumRanks; r++ {
			if tid, ok := ir.Occ.TaskAt(r, tj); ok {
				ir.Active[vi] = append(ir.Active[vi], tid)
			}
		}
	}

	// Fixed event order (Eqs. 12–13): initial-time order, ID tiebreak.
	ir.EventOrder = make([]dag.VertexID, len(g.Vertices))
	for i := range ir.EventOrder {
		ir.EventOrder[i] = dag.VertexID(i)
	}
	sort.Slice(ir.EventOrder, func(a, b int) bool {
		ta, tb := init.VertexTime[ir.EventOrder[a]], init.VertexTime[ir.EventOrder[b]]
		if ta != tb {
			return ta < tb
		}
		return ir.EventOrder[a] < ir.EventOrder[b]
	})
	return ir, nil
}

// Simultaneous reports whether consecutive events a and b of EventOrder
// fire at the same initial time (and are therefore pinned equal, Eq. 13).
func (ir *IR) Simultaneous(a, b dag.VertexID) bool {
	return ir.Init.VertexTime[a] == ir.Init.VertexTime[b]
}

// initialSchedule evaluates the power-unconstrained schedule: every tunable
// task at the maximum configuration.
func initialSchedule(ctx context.Context, fs *FrontierSet, g *dag.Graph) (*sim.Result, error) {
	pts := sim.Points(g)
	maxCfg := fs.model.MaxConfig()
	for i, t := range g.Tasks {
		if t.Kind != dag.Compute {
			continue
		}
		pts[i] = sim.TaskPoint{
			Duration: fs.model.Duration(t.Work, t.Shape, maxCfg),
			PowerW:   fs.model.Power(t.Shape, maxCfg, fs.Eff(t.Rank)),
		}
	}
	return sim.EvaluateCtx(ctx, g, pts, sim.SlackHoldsTaskPower, 0)
}

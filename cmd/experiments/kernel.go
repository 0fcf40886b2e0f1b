package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"powercap/internal/core"
	"powercap/internal/dag"
	"powercap/internal/lp"
	"powercap/internal/machine"
	"powercap/internal/workloads"
)

// The "kernel" exhibit benchmarks the LP kernel itself (DESIGN.md §14): the
// two basis engines (LU, the default, and eta, the rescue engine; both with
// steepest-edge pricing) on warm-started cap sweeps at 64-rank scale with
// LU scale-up rows to 256 ranks, the numerical-breakdown frontier ladder on
// synthetic long-chain traces, and a past-the-frontier windowed run that
// must need zero numerical rescues. With -benchjson the measurements are
// written as JSON.
//
// Every run is single-threaded and the runs execute strictly one after
// another — the reference host is a 1-CPU container, so concurrent
// measurement would corrupt the walls. Speedups here are algorithmic
// (pivot counts, factorization sparsity), not parallelism.

// kernelSizes parameterizes the exhibit so the smoke test can shrink it.
type kernelSizes struct {
	gridRanks    int     // rank count for the sweep rows of both engines
	scaleRanks   []int   // extra LU-only sweep rows (scale-up)
	sweepIters   int     // SP iterations (the sweep solves one slice)
	ladderRanks  int     // ranks for the synthetic frontier traces
	ladder       []int   // frontier ladder event counts, ascending
	ladderPerW   float64 // per-socket cap on the frontier traces
	pointBudgetS float64 // wall budget per monolithic frontier attempt
	windowEvents int     // past-the-frontier windowed run size
	coarsenEps   float64
}

func defaultKernelSizes() kernelSizes {
	return kernelSizes{
		gridRanks:    64,
		scaleRanks:   []int{128, 256},
		sweepIters:   4,
		ladderRanks:  4,
		ladder:       []int{250, 400, 500, 750, 1000, 1250, 1500},
		ladderPerW:   50,
		pointBudgetS: 120,
		windowEvents: 2500,
		coarsenEps:   2e-3,
	}
}

// kernelSweepRow is one engine's aggregate over a warm cap sweep.
type kernelSweepRow struct {
	Ranks      int     `json:"ranks"`
	Engine     string  `json:"engine"`
	WallS      float64 `json:"wall_s"`
	Solves     int     `json:"solves"`
	Pivots     int     `json:"pivots"`
	DualPivots int     `json:"dual_pivots"`
	WarmStarts int     `json:"warm_starts"`
}

// kernelFrontierPoint is one monolithic solve attempt on the ladder.
type kernelFrontierPoint struct {
	Events    int     `json:"events"`
	Outcome   string  `json:"outcome"`
	WallS     float64 `json:"wall_s"`
	Pivots    int     `json:"pivots,omitempty"`
	MakespanS float64 `json:"makespan_s,omitempty"`
}

// kernelFrontierRow is one engine's breakdown frontier.
type kernelFrontierRow struct {
	Engine         string                `json:"engine"`
	Points         []kernelFrontierPoint `json:"points"`
	FrontierEvents int                   `json:"frontier_events"`
	FailOutcome    string                `json:"fail_outcome,omitempty"`
	FailEvents     int                   `json:"fail_events,omitempty"`
}

// kernelReport is the -benchjson document.
type kernelReport struct {
	SingleThreaded bool                `json:"single_threaded"`
	HostNote       string              `json:"host_note"`
	GridRanks      int                 `json:"grid_ranks"`
	CapsPerW       []float64           `json:"caps_per_socket_w"`
	Sweeps         []kernelSweepRow    `json:"sweeps"`
	LadderRanks    int                 `json:"ladder_ranks"`
	LadderPerW     float64             `json:"ladder_cap_per_socket_w"`
	Frontier       []kernelFrontierRow `json:"frontier"`
	WindowEvents   int                 `json:"window_events"`
	WindowWallS    float64             `json:"window_wall_s"`
	WindowRescues  int                 `json:"window_numerical_rescues"`
	Generated      string              `json:"generated"`
}

// kernelEngines are the measured engines: the default first, then the
// rescue engine.
var kernelEngines = []lp.Engine{lp.EngineLU, lp.EngineEta}

// Monolithic frontier outcomes beyond scale.go's: past its numerical limits
// a phase 1 can wander into declaring a solvable instance infeasible
// instead of failing loudly.
const monoFalseInfeasible = "false-infeasible"

func runKernel(cfg config) error {
	return runKernelSized(cfg, defaultKernelSizes())
}

func runKernelSized(cfg config, sz kernelSizes) error {
	header("LP kernel", "LU vs eta warm sweeps, breakdown frontier, and zero-rescue check (DESIGN.md §14; single-threaded, runs serialized for the 1-CPU host)")
	report := kernelReport{
		SingleThreaded: true,
		HostNote:       "1-CPU container; every run is serialized, speedups are algorithmic not parallel",
		GridRanks:      sz.gridRanks,
		LadderRanks:    sz.ladderRanks,
		LadderPerW:     sz.ladderPerW,
	}

	// --- Warm cap sweeps: both engines, then LU scale-up rows. ---
	for per := 70.0; per >= 30; per -= 10 {
		report.CapsPerW = append(report.CapsPerW, per)
	}
	sweep := func(ranks int, eng lp.Engine) (kernelSweepRow, error) {
		w := workloads.SP(workloads.Params{Ranks: ranks, Iterations: sz.sweepIters, Seed: cfg.seed, WorkScale: cfg.scale})
		slices, err := dag.SliceAll(w.Graph)
		if err != nil {
			return kernelSweepRow{}, err
		}
		si := 2
		if si >= len(slices) {
			si = len(slices) - 1
		}
		g := slices[si].Graph
		var caps []float64
		for _, per := range report.CapsPerW {
			caps = append(caps, per*float64(ranks))
		}
		s := core.NewSolver(machine.Default(), w.EffScale)
		s.Engine = eng
		var st core.Stats
		start := time.Now()
		pts, err := s.SolveSweep(g, caps)
		if err != nil {
			return kernelSweepRow{}, err
		}
		for _, pt := range pts {
			if pt.Err != nil {
				return kernelSweepRow{}, pt.Err
			}
			st.Add(pt.Schedule.Stats)
		}
		return kernelSweepRow{
			Ranks:      ranks,
			Engine:     eng.String(),
			WallS:      time.Since(start).Seconds(),
			Solves:     st.Solves,
			Pivots:     st.SimplexIter,
			DualPivots: st.DualIter,
			WarmStarts: st.WarmStarts,
		}, nil
	}

	for _, eng := range kernelEngines {
		fmt.Fprintf(os.Stderr, "  warm sweep: %d ranks, %s...\n", sz.gridRanks, eng)
		row, err := sweep(sz.gridRanks, eng)
		if err != nil {
			return fmt.Errorf("sweep %d ranks %s: %w", sz.gridRanks, eng, err)
		}
		report.Sweeps = append(report.Sweeps, row)
	}
	// Scale-up rows run the default engine only: the eta engine is the
	// rescue path, not a configuration anyone sweeps at this scale.
	for _, ranks := range sz.scaleRanks {
		fmt.Fprintf(os.Stderr, "  warm sweep: %d ranks, %s...\n", ranks, lp.EngineLU)
		row, err := sweep(ranks, lp.EngineLU)
		if err != nil {
			return fmt.Errorf("sweep %d ranks %s: %w", ranks, lp.EngineLU, err)
		}
		report.Sweeps = append(report.Sweeps, row)
	}

	fmt.Printf("%7s%8s%10s%8s%10s%8s%8s\n", "ranks", "engine", "wall(s)", "solves", "pivots", "dual", "warm")
	for _, r := range report.Sweeps {
		fmt.Printf("%7d%8s%10.2f%8d%10d%8d%8d\n",
			r.Ranks, r.Engine, r.WallS, r.Solves, r.Pivots, r.DualPivots, r.WarmStarts)
	}

	// --- Breakdown frontier: monolithic solves on long-chain traces. ---
	frontier := func(eng lp.Engine) (kernelFrontierRow, error) {
		row := kernelFrontierRow{Engine: eng.String()}
		for _, events := range sz.ladder {
			w := workloads.Synthetic(workloads.SynthParams{
				Ranks: sz.ladderRanks, Events: events, Seed: cfg.seed, WorkScale: cfg.scale,
			})
			s := core.NewSolver(machine.Default(), w.EffScale)
			s.Engine = eng
			fmt.Fprintf(os.Stderr, "  frontier: %s at %d events...\n", eng, events)
			ctx, cancel := context.WithTimeout(context.Background(),
				time.Duration(sz.pointBudgetS*float64(time.Second)))
			t0 := time.Now()
			sched, err := s.SolveCtx(ctx, w.Graph, sz.ladderPerW*float64(sz.ladderRanks))
			cancel()
			pt := kernelFrontierPoint{Events: events, WallS: time.Since(t0).Seconds()}
			var numErr *lp.NumericalError
			switch {
			case err == nil:
				pt.Outcome = monoOK
				pt.Pivots = sched.Stats.SimplexIter
				pt.MakespanS = sched.MakespanS
			case errors.As(err, &numErr):
				pt.Outcome = monoBreakdown
			case errors.Is(err, context.DeadlineExceeded):
				pt.Outcome = monoBudget
			case errors.Is(err, core.ErrInfeasible):
				// The same trace and cap solve fine on the other engine:
				// an infeasible verdict here is numerical failure
				// masquerading as a status, and counts against the
				// frontier just like an explicit breakdown.
				pt.Outcome = monoFalseInfeasible
			default:
				return row, fmt.Errorf("frontier %s at %d events: %w", eng, events, err)
			}
			row.Points = append(row.Points, pt)
			if pt.Outcome != monoOK {
				row.FailOutcome = pt.Outcome
				row.FailEvents = events
				break
			}
			row.FrontierEvents = events
		}
		return row, nil
	}

	for _, eng := range kernelEngines {
		row, err := frontier(eng)
		if err != nil {
			return err
		}
		report.Frontier = append(report.Frontier, row)
	}

	fmt.Printf("\n%8s%12s%22s      per-size outcomes\n", "engine", "frontier", "first failure")
	for _, row := range report.Frontier {
		fail := "-"
		if row.FailOutcome != "" {
			fail = fmt.Sprintf("%s @%d", row.FailOutcome, row.FailEvents)
		}
		var outs string
		for _, pt := range row.Points {
			outs += fmt.Sprintf(" %d:%s", pt.Events, pt.Outcome)
		}
		fmt.Printf("%8s%12d%22s     %s\n", row.Engine, row.FrontierEvents, fail, outs)
	}

	// --- Zero-rescue check: windowed solve past every mono frontier, on
	// the default engine (a pinned LU would error instead of rescuing). ---
	w := workloads.Synthetic(workloads.SynthParams{
		Ranks: sz.ladderRanks, Events: sz.windowEvents, Seed: cfg.seed, WorkScale: cfg.scale,
	})
	s := core.NewSolver(machine.Default(), w.EffScale)
	fmt.Fprintf(os.Stderr, "  windowed zero-rescue run: %d events on the default engine...\n", sz.windowEvents)
	t0 := time.Now()
	ws, err := s.SolveWindowed(w.Graph, sz.ladderPerW*float64(sz.ladderRanks), core.WindowedOptions{
		Windows: scaleWindows(len(w.Graph.Vertices)), OverlapEvents: -1, CoarsenEps: sz.coarsenEps,
	})
	if err != nil {
		return fmt.Errorf("windowed zero-rescue run: %w", err)
	}
	report.WindowEvents = sz.windowEvents
	report.WindowWallS = time.Since(t0).Seconds()
	report.WindowRescues = ws.Stats.Rescues
	fmt.Printf("windowed run at %d events (past every monolithic frontier): %.1fs, %d numerical rescues (acceptance: 0)\n",
		report.WindowEvents, report.WindowWallS, report.WindowRescues)

	if cfg.benchJSON != "" {
		report.Generated = time.Now().UTC().Format(time.RFC3339)
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.benchJSON, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", cfg.benchJSON)
	}
	return nil
}

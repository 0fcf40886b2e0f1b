package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"powercap/internal/core"
	"powercap/internal/lp"
	"powercap/internal/machine"
	"powercap/internal/workloads"
)

// The "scale" exhibit measures the windowed large-trace path (DESIGN.md
// §12) on synthetic Zipf traces. Three regimes:
//
//   - a gap ladder at sizes where the monolithic sparse LP still solves,
//     reporting the signed windowed-vs-monolithic gap (two-sided once
//     coarsening removes interior rows; acceptance is |gap| <= 2%);
//   - sizes where the monolithic LP stops being an option — on these
//     long-chain programs the sparse LP suffers numerical breakdown
//     (singular basis at refactorization) well before memory is a concern
//     — while the windowed path, whose per-window LPs stay small and well-conditioned,
//     keeps solving;
//   - a speculative-worker sweep showing the phase-A thread scaling.
//
// With -benchjson the measurements are written as BENCH_scale.json.

// scaleSizes parameterizes the exhibit so the smoke test can shrink it.
type scaleSizes struct {
	ranks        int
	ladder       []int // event counts to measure (mono attempted at each)
	large        int   // headline trace size
	threadEvents int   // trace size for the worker sweep
	threads      []int // speculative worker counts
	perSocketW   float64
	coarsenEps   float64
	monoBudgetX  float64 // monolithic wall budget, × windowed wall
	minBudgetS   float64 // ...but never below this many seconds
}

func defaultScaleSizes() scaleSizes {
	return scaleSizes{
		ranks:        4,
		ladder:       []int{200, 300, 400, 1000},
		large:        100000,
		threadEvents: 20000,
		threads:      []int{1, 2, 4, 8},
		perSocketW:   50,
		coarsenEps:   2e-3,
		monoBudgetX:  10,
		minBudgetS:   30,
	}
}

// scaleWindows picks the window count so cores hold a few hundred events —
// small enough that every window LP stays cheap and well-conditioned,
// large enough that the overlap (a quarter core) amortizes.
func scaleWindows(vertices int) int {
	w := vertices / 600
	if w < 2 {
		w = 2
	}
	return w
}

// Monolithic attempt outcomes.
const (
	monoOK        = "ok"
	monoBreakdown = "numerical-breakdown"
	monoBudget    = "budget-exhausted"
)

// scalePoint is one trace size's measurement.
type scalePoint struct {
	Events            int     `json:"events"`
	Vertices          int     `json:"vertices"`
	Tasks             int     `json:"tasks"`
	Windows           int     `json:"windows"`
	CoarsenEps        float64 `json:"coarsen_eps"`
	MergedTasks       int     `json:"merged_tasks"`
	WindowedWallS     float64 `json:"windowed_wall_s"`
	WindowedMakespanS float64 `json:"windowed_makespan_s"`
	WarmStartRate     float64 `json:"warm_start_rate"`
	SpeculativeSolves int     `json:"speculative_solves"`
	CommitSolves      int     `json:"commit_solves"`
	Escalations       int     `json:"escalations"`
	NumericalRescues  int     `json:"numerical_rescues"`
	SeamViolationW    float64 `json:"seam_violation_w"`
	MonoOutcome       string  `json:"mono_outcome"`
	MonoWallS         float64 `json:"mono_wall_s"`
	MonoBudgetS       float64 `json:"mono_budget_s"`
	MonoMakespanS     float64 `json:"mono_makespan_s,omitempty"`
	GapPct            float64 `json:"gap_pct"` // signed, only when MonoOutcome == ok
}

// scaleThreadPoint is one speculative-worker setting.
type scaleThreadPoint struct {
	Parallel int     `json:"parallel"`
	WallS    float64 `json:"wall_s"`
	SpeedupX float64 `json:"speedup_x"`
}

// scaleReport is the BENCH_scale.json document.
type scaleReport struct {
	Ranks         int                `json:"ranks"`
	CapPerSocketW float64            `json:"cap_per_socket_w"`
	CoarsenEps    float64            `json:"coarsen_eps"`
	Points        []scalePoint       `json:"points"`
	ThreadEvents  int                `json:"thread_events"`
	Threads       []scaleThreadPoint `json:"threads"`
	WorstGapPct   float64            `json:"worst_abs_gap_pct"`
	Generated     string             `json:"generated"`
}

func runScale(cfg config) error {
	return runScaleSized(cfg, defaultScaleSizes())
}

func runScaleSized(cfg config, sz scaleSizes) error {
	header("Windowed scaling", "synthetic Zipf traces: windowed decomposition vs the monolithic LP (DESIGN.md §12)")
	capW := sz.perSocketW * float64(sz.ranks)
	report := scaleReport{Ranks: sz.ranks, CapPerSocketW: sz.perSocketW, CoarsenEps: sz.coarsenEps}

	synth := func(events int) *workloads.Workload {
		return workloads.Synthetic(workloads.SynthParams{
			Ranks: sz.ranks, Events: events, Seed: cfg.seed, WorkScale: cfg.scale,
		})
	}

	solveOne := func(events int) (scalePoint, error) {
		w := synth(events)
		g := w.Graph
		s := core.NewSolver(machine.Default(), w.EffScale)
		pt := scalePoint{
			Events:     events,
			Vertices:   len(g.Vertices),
			Tasks:      len(g.Tasks),
			CoarsenEps: sz.coarsenEps,
		}

		fmt.Fprintf(os.Stderr, "  %d events: windowed solve (%d windows)...\n",
			events, scaleWindows(len(g.Vertices)))
		t0 := time.Now()
		ws, err := s.SolveWindowed(g, capW, core.WindowedOptions{
			Windows: scaleWindows(len(g.Vertices)), OverlapEvents: -1, CoarsenEps: sz.coarsenEps,
		})
		if err != nil {
			return pt, fmt.Errorf("windowed solve at %d events: %w", events, err)
		}
		pt.WindowedWallS = time.Since(t0).Seconds()
		pt.Windows = ws.Windows
		pt.WindowedMakespanS = ws.MakespanS
		pt.MergedTasks = ws.MergedTasks
		pt.WarmStartRate = ws.WarmStartRate()
		pt.SpeculativeSolves = ws.SpeculativeSolves
		pt.CommitSolves = ws.CommitSolves
		pt.Escalations = ws.Escalations
		pt.NumericalRescues = ws.NumericalFallbacks()
		pt.SeamViolationW = ws.SeamViolationW

		// The monolithic LP gets a generous wall budget relative to the
		// windowed wall; past it (or past its numerical limits) the point
		// is made — the decomposition is the only practical path.
		budget := time.Duration(sz.monoBudgetX * pt.WindowedWallS * float64(time.Second))
		if min := time.Duration(sz.minBudgetS * float64(time.Second)); budget < min {
			budget = min
		}
		pt.MonoBudgetS = budget.Seconds()
		fmt.Fprintf(os.Stderr, "  %d events: monolithic solve (budget %.0fs)...\n", events, budget.Seconds())
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		t1 := time.Now()
		mono, merr := s.SolveCtx(ctx, g, capW)
		cancel()
		pt.MonoWallS = time.Since(t1).Seconds()
		var numErr *lp.NumericalError
		switch {
		case merr == nil:
			pt.MonoOutcome = monoOK
			pt.MonoMakespanS = mono.MakespanS
			pt.GapPct = (ws.MakespanS/mono.MakespanS - 1) * 100
		case errors.Is(merr, context.DeadlineExceeded):
			pt.MonoOutcome = monoBudget
		case errors.As(merr, &numErr):
			pt.MonoOutcome = monoBreakdown
		default:
			return pt, fmt.Errorf("monolithic solve at %d events: %w", events, merr)
		}
		return pt, nil
	}

	for _, events := range append(append([]int{}, sz.ladder...), sz.large) {
		pt, err := solveOne(events)
		if err != nil {
			return err
		}
		report.Points = append(report.Points, pt)
	}

	fmt.Printf("%9s%10s%9s%9s%12s%14s%22s%9s\n",
		"events", "vertices", "windows", "merged", "win wall(s)", "mono wall(s)", "monolithic", "warm(%)")
	for _, pt := range report.Points {
		gap := pt.MonoOutcome
		if pt.MonoOutcome == monoOK {
			gap = fmt.Sprintf("gap %+.3f%%", pt.GapPct)
		}
		fmt.Printf("%9d%10d%9d%9d%12.2f%14.2f%22s%9.0f\n",
			pt.Events, pt.Vertices, pt.Windows, pt.MergedTasks, pt.WindowedWallS,
			pt.MonoWallS, gap, pt.WarmStartRate*100)
		if g := abs(pt.GapPct); pt.MonoOutcome == monoOK && g > report.WorstGapPct {
			report.WorstGapPct = g
		}
	}
	fmt.Printf("\nworst |gap| where the monolithic LP ran: %.3f%% (acceptance: <= 2%%)\n", report.WorstGapPct)
	large := report.Points[len(report.Points)-1]
	switch large.MonoOutcome {
	case monoBudget:
		fmt.Printf("at %d events the monolithic LP did not finish within %.0fx the windowed wall (%.0fs); the windowed path took %.1fs\n",
			large.Events, sz.monoBudgetX, large.MonoBudgetS, large.WindowedWallS)
	case monoBreakdown:
		fmt.Printf("at %d events the monolithic sparse LP broke down numerically after %.1fs; the windowed path took %.1fs\n",
			large.Events, large.MonoWallS, large.WindowedWallS)
	default:
		fmt.Printf("at %d events the monolithic LP finished in %.1fs vs windowed %.1fs (%.1fx)\n",
			large.Events, large.MonoWallS, large.WindowedWallS, large.MonoWallS/large.WindowedWallS)
	}

	// Thread scaling: same trace, speculative worker pool clamped. A
	// warm-up solve populates the solver's IR and window-plan caches so the
	// sweep isolates the solve phases (phase A is the parallel part; phase
	// B commits are inherently serial, so Amdahl caps the speedup).
	w := synth(sz.threadEvents)
	s := core.NewSolver(machine.Default(), w.EffScale)
	wopts := core.WindowedOptions{
		Windows: scaleWindows(len(w.Graph.Vertices)), OverlapEvents: -1, CoarsenEps: sz.coarsenEps,
	}
	fmt.Fprintf(os.Stderr, "  thread sweep warm-up (%d events)...\n", sz.threadEvents)
	if _, err := s.SolveWindowed(w.Graph, capW, wopts); err != nil {
		return fmt.Errorf("thread sweep warm-up: %w", err)
	}
	report.ThreadEvents = sz.threadEvents
	fmt.Printf("\n%10s%12s%10s      (%d events, plan cached)\n", "workers", "wall(s)", "speedup", sz.threadEvents)
	var base float64
	for _, p := range sz.threads {
		fmt.Fprintf(os.Stderr, "  thread sweep: %d workers...\n", p)
		o := wopts
		o.Parallel = p
		t0 := time.Now()
		if _, err := s.SolveWindowed(w.Graph, capW, o); err != nil {
			return fmt.Errorf("thread sweep at %d workers: %w", p, err)
		}
		wall := time.Since(t0).Seconds()
		if base == 0 {
			base = wall
		}
		tp := scaleThreadPoint{Parallel: p, WallS: wall, SpeedupX: base / wall}
		report.Threads = append(report.Threads, tp)
		fmt.Printf("%10d%12.2f%9.2fx\n", tp.Parallel, tp.WallS, tp.SpeedupX)
	}

	if cfg.benchJSON != "" {
		report.Generated = time.Now().UTC().Format(time.RFC3339)
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.benchJSON, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", cfg.benchJSON)
	}
	return nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

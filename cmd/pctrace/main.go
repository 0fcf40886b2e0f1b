// Command pctrace generates, inspects, and converts application traces —
// the DAG artifacts the LP consumes. It plays the role of the paper's MPI
// tracing library frontend.
//
// Usage:
//
//	pctrace gen  -workload BT -ranks 8 -iters 6 -o bt.trace.json
//	pctrace info bt.trace.json
//	pctrace solve -cap 40 bt.trace.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"powercap/internal/core"
	"powercap/internal/dag"
	"powercap/internal/machine"
	"powercap/internal/trace"
	"powercap/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gen":
		cmdGen(os.Args[2:])
	case "info":
		cmdInfo(os.Args[2:])
	case "solve":
		cmdSolve(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  pctrace gen  -workload <name> [-ranks N] [-iters N] [-seed N] [-scale F] [-o file]
  pctrace gen  -events N [-ranks N] [-zipf S] [-seed N] [-scale F] [-o file]   (synthetic Zipf trace)
  pctrace info  <trace.json>
  pctrace solve -cap <W/socket> <trace.json>`)
	os.Exit(2)
}

func cmdGen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	name := fs.String("workload", "CoMD", "workload name, or \"synthetic\" for the Zipf large-trace generator")
	ranks := fs.Int("ranks", 8, "MPI ranks")
	iters := fs.Int("iters", 6, "iterations (benchmark proxies)")
	events := fs.Int("events", 0, "target event (vertex) count — selects the synthetic generator")
	zipfS := fs.Float64("zipf", 0, "synthetic Zipf exponent for phase-task work (> 1; default 1.5)")
	seed := fs.Int64("seed", 1, "seed")
	scale := fs.Float64("scale", 1.0, "work scale")
	out := fs.String("o", "", "output file (default stdout)")
	_ = fs.Parse(args)

	var w *workloads.Workload
	if *events > 0 || strings.EqualFold(*name, "synthetic") {
		w = workloads.Synthetic(workloads.SynthParams{
			Ranks: *ranks, Events: *events, Seed: *seed, WorkScale: *scale, ZipfS: *zipfS,
		})
	} else {
		var err error
		w, err = workloads.ByName(*name, workloads.Params{Ranks: *ranks, Iterations: *iters, Seed: *seed, WorkScale: *scale})
		if err != nil {
			fatal(err)
		}
	}
	dst := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		dst = f
	}
	if err := trace.Write(dst, w.Name, w.Graph, w.EffScale); err != nil {
		fatal(err)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "wrote %s: %d vertices, %d tasks\n", *out, len(w.Graph.Vertices), len(w.Graph.Tasks))
	}
}

func loadTrace(path string) (*dag.Graph, []float64) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	g, eff, err := trace.Read(f)
	if err != nil {
		fatal(err)
	}
	return g, eff
}

func cmdInfo(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	g, eff := loadTrace(fs.Arg(0))

	computes, messages, zero := 0, 0, 0
	work := 0.0
	classes := map[string]int{}
	for _, t := range g.Tasks {
		switch {
		case t.Kind == dag.Message:
			messages++
		case t.Work <= 0:
			zero++
		default:
			computes++
			work += t.Work
			classes[t.Class]++
		}
	}
	fmt.Printf("ranks:       %d\n", g.NumRanks)
	fmt.Printf("vertices:    %d\n", len(g.Vertices))
	fmt.Printf("tasks:       %d compute (%d degenerate), %d messages\n", computes+zero, zero, messages)
	fmt.Printf("iterations:  %d\n", g.Iterations()+1)
	fmt.Printf("total work:  %.2f thread-seconds at max frequency\n", work)
	fmt.Printf("classes:     %v\n", classes)
	if len(eff) > 0 {
		lo, hi := eff[0], eff[0]
		for _, e := range eff {
			if e < lo {
				lo = e
			}
			if e > hi {
				hi = e
			}
		}
		fmt.Printf("efficiency:  %.3f–%.3f\n", lo, hi)
	}
}

func cmdSolve(args []string) {
	fs := flag.NewFlagSet("solve", flag.ExitOnError)
	capW := fs.Float64("cap", 50, "per-socket average power cap (W)")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	g, eff := loadTrace(fs.Arg(0))
	s := core.NewSolver(machine.Default(), eff)
	sched, err := s.SolveIterations(g, *capW*float64(g.NumRanks))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("LP bound at %.0f W/socket: %.4f s (marginal %.4f s/W; %d solves, %d pivots)\n",
		*capW, sched.MakespanS, sched.MarginalSecPerW, sched.Stats.Solves, sched.Stats.SimplexPivots)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pctrace:", err)
	os.Exit(1)
}

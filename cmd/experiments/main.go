// Command experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the exhibit index).
//
// Usage:
//
//	experiments [flags] <exhibit>...
//	experiments -ranks 32 all
//
// Exhibits: fig1 table1 fig2 fig3 fig8 fig9 fig10 fig11 fig12 fig13 fig14
// fig15 table3 validate configsel overheads solver kernel service
// realization resilience observability scale market twin summary all.
//
// Absolute numbers depend on the simulated machine model; the shapes (who
// wins, by how much, where the crossovers fall) are the reproduction
// target. EXPERIMENTS.md records paper-vs-measured values.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

type config struct {
	ranks     int
	iters     int
	seed      int64
	scale     float64
	ilpFig    bool
	benchJSON string
}

func main() {
	cfg := config{}
	flag.IntVar(&cfg.ranks, "ranks", 16, "MPI ranks / sockets (paper: 32; default reduced for solve time)")
	flag.IntVar(&cfg.iters, "iters", 12, "application iterations per run (first 3 discarded)")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload generation seed")
	flag.Float64Var(&cfg.scale, "scale", 1.0, "task work scale (1.0 ≈ paper-like second-long iterations)")
	flag.StringVar(&cfg.benchJSON, "benchjson", "", "write the solver/service/realization/resilience exhibit's measurements to this JSON file (e.g. BENCH_resilience.json)")
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"all"}
	}

	exhibits := map[string]func(config) error{
		"fig1":          runFig1,
		"table1":        runTable1,
		"fig2":          runFig2,
		"fig3":          runFig3,
		"fig8":          runFig8,
		"fig9":          runFig9,
		"fig10":         runFig10,
		"fig11":         func(c config) error { return runBenchFigure(c, "CoMD", "Figure 11") },
		"fig13":         func(c config) error { return runBenchFigure(c, "BT", "Figure 13") },
		"fig14":         func(c config) error { return runBenchFigure(c, "SP", "Figure 14") },
		"fig15":         func(c config) error { return runBenchFigure(c, "LULESH", "Figure 15") },
		"fig12":         runFig12,
		"table3":        runTable3,
		"overheads":     runOverheads,
		"summary":       runSummary,
		"validate":      runValidate,
		"configsel":     runConfigSel,
		"solver":        runSolver,
		"service":       runService,
		"realization":   runRealization,
		"resilience":    runResilience,
		"observability": runObservability,
		"scale":         runScale,
		"market":        runMarket,
		"kernel":        runKernel,
		"twin":          runTwin,
	}
	order := []string{"fig1", "table1", "fig2", "fig3", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15", "table3", "validate", "configsel", "overheads", "solver", "kernel", "service", "realization", "resilience", "observability", "scale", "market", "twin", "summary"}

	var todo []string
	for _, a := range args {
		a = strings.ToLower(a)
		if a == "all" {
			todo = append(todo, order...)
			continue
		}
		if _, ok := exhibits[a]; !ok {
			fmt.Fprintf(os.Stderr, "unknown exhibit %q; known: %s all\n", a, strings.Join(order, " "))
			os.Exit(2)
		}
		todo = append(todo, a)
	}

	for _, name := range todo {
		if err := exhibits[name](cfg); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

// header prints a boxed exhibit title.
func header(title, subtitle string) {
	fmt.Printf("=== %s ===\n", title)
	if subtitle != "" {
		fmt.Printf("%s\n", subtitle)
	}
}

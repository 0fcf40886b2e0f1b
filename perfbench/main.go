// Command perfbench is the repository's benchmark: one in-process pcschedd
// (service.New with two workers) driven through ServeHTTP by at most two
// closed-loop clients under one of four traffic mixes, with every answer
// checked against a checked-in oracle.
//
//	go run . -workload serve-hit -seed 1 -seconds 15 -trace 0
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 a separate
// traced run prints the per-layer metrics and writes Chrome trace files.
// The last line of standard output is the JSON result. README.md describes
// the workloads, the metrics and what each layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// metricDef declares one reported metric. bound applies to end-to-end
// metrics only: the share of the parent's median by which it may worsen.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var endToEnd = []metricDef{
	{"p50_ms", "ms", "lower", 0.25},
	{"p90_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.1},
	{"peak_rss_mb", "MB", "lower", 0.2},
	{"setup_s", "s", "lower", 0.25},
}

var perLayer = []metricDef{
	{Name: "service.self_us", Unit: "us", Better: "lower"},
	{Name: "service.json_decode_us", Unit: "us", Better: "lower"},
	{Name: "service.json_encode_us", Unit: "us", Better: "lower"},
	{Name: "service.cache_hit_frac", Unit: "frac", Better: "higher"},
	{Name: "workloads.build_us", Unit: "us", Better: "lower"},
	{Name: "trace.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "dag.digest_us", Unit: "us", Better: "lower"},
	{Name: "dag.digest_allocs", Unit: "count", Better: "lower"},
	{Name: "dag.key_us", Unit: "us", Better: "lower"},
	{Name: "dag.slice_us", Unit: "us", Better: "lower"},
	{Name: "problem.ir_build_ms", Unit: "ms", Better: "lower"},
	{Name: "problem.ir_reuse_frac", Unit: "frac", Better: "higher"},
	{Name: "core.solve_ms", Unit: "ms", Better: "lower"},
	{Name: "core.build_extract_ms", Unit: "ms", Better: "lower"},
	{Name: "lp.solve_ms", Unit: "ms", Better: "lower"},
	{Name: "lp.phase1_ms", Unit: "ms", Better: "lower"},
	{Name: "lp.phase2_ms", Unit: "ms", Better: "lower"},
	{Name: "lp.dual_ms", Unit: "ms", Better: "lower"},
	{Name: "lp.refactorize_ms", Unit: "ms", Better: "lower"},
	{Name: "lp.solve_self_ms", Unit: "ms", Better: "lower"},
	{Name: "lp.pivots_per_op", Unit: "count", Better: "lower"},
	{Name: "lp.refactorizations_per_op", Unit: "count", Better: "lower"},
	{Name: "lp.presolve_elims_per_op", Unit: "count", Better: "higher"},
	{Name: "lp.warm_start_frac", Unit: "frac", Better: "higher"},
	{Name: "schedule.realize_ms", Unit: "ms", Better: "lower"},
	{Name: "schedule.repairs_per_realize", Unit: "count", Better: "lower"},
	{Name: "sim.evaluate_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.evaluate_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "market.allocate_ms", Unit: "ms", Better: "lower"},
	{Name: "market.iterations_per_alloc", Unit: "count", Better: "lower"},
	{Name: "market.solves_per_alloc", Unit: "count", Better: "lower"},
	{Name: "market.unconverged_frac", Unit: "frac", Better: "lower"},
	{Name: "coarsen.ms", Unit: "ms", Better: "lower"},
	{Name: "coarsen.merged_frac", Unit: "frac", Better: "higher"},
	{Name: "window.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "window.build_ms", Unit: "ms", Better: "lower"},
	{Name: "window.solve_ms", Unit: "ms", Better: "lower"},
	{Name: "window.stitch_ms", Unit: "ms", Better: "lower"},
	{Name: "window.warm_start_rate", Unit: "frac", Better: "higher"},
	{Name: "window.escalations", Unit: "count", Better: "lower"},
	{Name: "window.rescues", Unit: "count", Better: "lower"},
	{Name: "resilience.fallbacks", Unit: "count", Better: "lower"},
	{Name: "go.gc_cpu_frac", Unit: "frac", Better: "lower"},
	{Name: "obs.overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "answer_gap_pct", Unit: "%", Better: "lower"},
}

// runSeconds is the measuring window BENCHMARK.json declares.
const runSeconds = 20

type config struct {
	wl     *workload
	seed   int64
	window time.Duration
	trace  bool
	outDir string
}

func main() {
	var (
		name       = flag.String("workload", "", "traffic mix: serve-hit, serve-miss, warm-sweep or large-trace")
		seed       = flag.Int64("seed", 1, "seed for every generated input")
		seconds    = flag.Float64("seconds", runSeconds, "length of the measuring window")
		traced     = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		outDir     = flag.String("out", ".bench_build/perfbench", "directory for Chrome trace files")
		goldenPath = flag.String("golden", "", "recompute the oracle with direct facade calls, write it to this file and exit")
		specOnly   = flag.Bool("spec", false, "print the BENCHMARK.json this benchmark implements and exit")
	)
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *traced, *outDir, *goldenPath, *specOnly); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds float64, traced int, outDir, goldenPath string, specOnly bool) error {
	switch {
	case specOnly:
		data, err := specJSON()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(data)
		return err
	case goldenPath != "":
		return writeGolden(goldenPath)
	}
	wl, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds <= 0 || (traced != 0 && traced != 1) {
		return errors.New("-seconds must be positive and -trace 0 or 1")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	cfg := config{wl: wl, seed: seed, window: time.Duration(seconds * float64(time.Second)), trace: traced == 1, outDir: outDir}
	gd, err := loadGolden()
	if err != nil {
		return err
	}
	var res *result
	if cfg.trace {
		res, err = runTraced(cfg, gd)
	} else {
		res, err = runEndToEnd(cfg, gd)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newResult fills the result's counts: warm-up requests are requests too, so
// they count as attempted and, when wrong, as failed.
func newResult(samples []sample, warm []outcome) *result {
	r := &result{Attempted: len(samples) + len(warm), Metrics: map[string]metricValue{}}
	for _, s := range samples {
		if s.out.verdict != ok {
			r.Failed++
		}
	}
	for _, o := range warm {
		if o.verdict != ok {
			r.Failed++
		}
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	return r
}

func (r *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("undeclared metric " + name) // a bug in this file, not an input
}

// runEndToEnd is the untraced run: setup several times (setup_s is the
// median), then one measuring window on the last server.
func runEndToEnd(cfg config, gd *golden) (*result, error) {
	srv, p, warm, setups, err := setupN(cfg, gd, cfg.wl.setups)
	if err != nil {
		return nil, err
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0 := gcCPU()
	samples, elapsed := drive(srv, p.stream, cfg.wl.clients, cfg.window, false)
	gc1 := gcCPU()
	runtime.ReadMemStats(&m1)
	checkMonotone(samples)
	if len(samples) == 0 {
		return nil, errors.New("no operation completed in the window")
	}

	lat := latenciesMS(samples)
	res := newResult(samples, warm)
	n := float64(len(samples))
	res.set(endToEnd, "p50_ms", percentile(lat, 50))
	res.set(endToEnd, "p90_ms", percentile(lat, 90))
	res.set(endToEnd, "ops_per_s", n/elapsed.Seconds())
	res.set(endToEnd, "alloc_mb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/n/(1<<20))
	res.set(endToEnd, "peak_rss_mb", peakRSSMB())
	res.set(endToEnd, "setup_s", median(setups))

	fmt.Printf("workload %s seed %d: %d clients, closed loop, %.1f s window, %d ops (+%d warm-up)\n",
		cfg.wl.name, cfg.seed, cfg.wl.clients, elapsed.Seconds(), len(samples), len(warm))
	fmt.Printf("  why: %s\n", cfg.wl.why)
	if p, ok := tailPercentile(len(lat)); ok {
		fmt.Printf("  tail: p%g_ms %.4f (highest percentile with >= %d samples beyond, n=%d)\n",
			p, percentile(lat, p), minBeyond, len(lat))
	}
	fmt.Printf("  setup_s per setup: %s\n", floats(setups, "%.4f"))
	fmt.Printf("  fail_frac %.6f (%d of %d)  answer_gap_pct %.4f  gc_cpu_frac %.4f\n",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted,
		answerGapPct(samples), gc1.frac(gc0))
	printFailures(samples, warm)
	printProperties(samples, p.warm)
	printClasses(samples)
	for _, d := range endToEnd {
		fmt.Printf("  %-16s %12.4f %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	return res, nil
}

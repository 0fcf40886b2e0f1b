package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"powercap"
	"powercap/internal/dag"
	"powercap/internal/obs"
	"powercap/internal/service"
	"powercap/internal/trace"
)

// The traced run. It measures the per-layer metrics from three sources:
//
//   - the spans the daemon already emits, harvested from the ?trace=1
//     documents of every other request (per-op time and self time by span
//     name);
//   - the daemon's Metrics() counters and the replies' solver stats;
//   - replays: after the window, the benchmark times the same request
//     bodies through each serving layer's public function (JSON decode,
//     workloads, trace decode, dag digest, schedule key, JSON encode),
//     recording its own spans around those calls.
//
// It adds no span inside the program.

// replayLimit bounds how many traced requests are replayed.
const replayLimit = 256

// interval is [lo, hi) in microseconds.
type interval struct{ lo, hi float64 }

// unionLen is the total length covered by ivs, clipped to within.
func unionLen(ivs []interval, within interval) float64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		lo, hi := max(iv.lo, within.lo), min(iv.hi, within.hi)
		if hi > lo {
			clipped = append(clipped, interval{lo, hi})
		}
	}
	sort.Slice(clipped, func(a, b int) bool { return clipped[a].lo < clipped[b].lo })
	total, curLo, curHi := 0.0, 0.0, -1.0
	for i, iv := range clipped {
		switch {
		case i == 0:
			curLo, curHi = iv.lo, iv.hi
		case iv.lo > curHi:
			total += curHi - curLo
			curLo, curHi = iv.lo, iv.hi
		case iv.hi > curHi:
			curHi = iv.hi
		}
	}
	if len(clipped) > 0 {
		total += curHi - curLo
	}
	return total
}

// selfTimes returns each span's self time in µs: its duration minus the part
// of its interval that its child spans cover. Children that ran in
// parallel are counted once.
func selfTimes(evs []obs.Event) map[uint64]float64 {
	kids := make(map[uint64][]interval)
	for _, e := range evs {
		if e.Parent != 0 {
			kids[e.Parent] = append(kids[e.Parent], interval{e.TS, e.TS + e.Dur})
		}
	}
	self := make(map[uint64]float64, len(evs))
	for _, e := range evs {
		self[e.ID] = e.Dur - unionLen(kids[e.ID], interval{e.TS, e.TS + e.Dur})
	}
	return self
}

// rootCover is the µs of a document covered by its root spans.
func rootCover(evs []obs.Event) float64 {
	var roots []interval
	lo, hi := 0.0, 0.0
	for _, e := range evs {
		if e.Parent == 0 {
			roots = append(roots, interval{e.TS, e.TS + e.Dur})
			lo, hi = min(lo, e.TS), max(hi, e.TS+e.Dur)
		}
	}
	return unionLen(roots, interval{lo, hi})
}

// spanAgg is one span name's totals across the harvested documents.
type spanAgg struct {
	count   int
	totalUS float64
	selfUS  float64
}

// spanName keys problem.ir by its cached attribute, so reuse and builds
// aggregate apart.
func spanName(e obs.Event) string {
	if e.Name == "problem.ir" {
		if c, _ := e.Args["cached"].(bool); c {
			return "problem.ir[cached]"
		}
		return "problem.ir[build]"
	}
	return e.Name
}

func aggregateSpans(docs [][]obs.Event) map[string]*spanAgg {
	agg := make(map[string]*spanAgg)
	for _, evs := range docs {
		self := selfTimes(evs)
		for _, e := range evs {
			name := spanName(e)
			a := agg[name]
			if a == nil {
				a = &spanAgg{}
				agg[name] = a
			}
			a.count++
			a.totalUS += e.Dur
			a.selfUS += self[e.ID]
		}
	}
	return agg
}

// replayCost is one request's serving-layer costs (µs), timed by calling
// each layer's public function on the request's own body.
type replayCost struct {
	decode, build, traceDecode, digest, key, encode, encodeTraced float64
	builds, traceDecodes, digests, keys                           int
	digestAllocs                                                  float64
}

func timed(ctx context.Context, name string, f func()) float64 {
	_, sp := obs.Start(ctx, name)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	sp.End()
	return float64(d.Nanoseconds()) / 1e3
}

func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// replay times one request through the serving layers under ctx's trace.
func replay(ctx context.Context, s *sample) (replayCost, error) {
	var c replayCost
	ctx, root := obs.Start(ctx, "replay "+s.req.path)
	defer root.End()

	var err error
	// resolve builds a workload spec's proxy or decodes an inline trace,
	// as the daemon's resolveGraph does, timing the layer it calls.
	resolve := func(tf *trace.File, ws *service.WorkloadSpec) (*powercap.Graph, []float64, error) {
		if ws != nil {
			var wl *powercap.Workload
			var berr error
			c.builds++
			c.build += timed(ctx, "replay.workloads_build", func() {
				wl, berr = powercap.WorkloadByName(ws.Name, powercap.WorkloadParams{Ranks: ws.Ranks, Iterations: ws.Iters, Seed: ws.Seed, WorkScale: ws.Scale})
			})
			if berr != nil {
				return nil, nil, berr
			}
			return wl.Graph, wl.EffScale, nil
		}
		c.traceDecodes++
		tctx, sp := obs.Start(ctx, "replay.trace_decode")
		t0 := time.Now()
		g, eff, derr := trace.DecodeCtx(tctx, tf)
		c.traceDecode += float64(time.Since(t0).Nanoseconds()) / 1e3
		sp.End()
		return g, eff, derr
	}
	digest := func(g *powercap.Graph) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		c.digest += timed(ctx, "replay.dag_digest", func() { dag.Digest(g) })
		runtime.ReadMemStats(&m1)
		c.digestAllocs += float64(m1.Mallocs - m0.Mallocs)
		c.digests++
	}

	switch s.req.path {
	case "/v1/solve":
		var r service.SolveRequest
		c.decode = timed(ctx, "replay.json_decode", func() { err = decodeStrict(s.req.body, &r) })
		if err != nil {
			return c, err
		}
		g, eff, err := resolve(r.Trace, r.Workload)
		if err != nil {
			return c, err
		}
		digest(g)
		sys := powercap.NewSystem(nil)
		sys.EffScale = eff
		jobCap := r.JobCapW
		if jobCap == 0 {
			jobCap = r.CapPerSocketW * float64(g.NumRanks)
		}
		c.keys++
		c.key = timed(ctx, "replay.dag_key", func() {
			sys.ScheduleKey(g, jobCap, r.Whole, r.Realize, r.Windows, r.CoarsenEps)
		})
	case "/v1/sweep":
		var r service.SweepRequest
		c.decode = timed(ctx, "replay.json_decode", func() { err = decodeStrict(s.req.body, &r) })
		if err != nil {
			return c, err
		}
		g, _, err := resolve(r.Trace, r.Workload)
		if err != nil {
			return c, err
		}
		digest(g)
	case "/v1/cluster":
		var r service.ClusterRequest
		c.decode = timed(ctx, "replay.json_decode", func() { err = decodeStrict(s.req.body, &r) })
		if err != nil {
			return c, err
		}
		for _, j := range r.Jobs {
			g, _, err := resolve(j.Trace, j.Workload)
			if err != nil {
				return c, err
			}
			digest(g)
		}
	}
	enc := json.NewEncoder(io.Discard)
	c.encode = timed(ctx, "replay.json_encode", func() { err = enc.Encode(s.out.reply) })
	if err != nil {
		return c, err
	}
	// The traced reply also carried its trace document; encoding it is part
	// of what the traced request paid, so service.self_us subtracts it.
	c.encodeTraced = c.encode
	if s.out.trace != nil {
		c.encodeTraced += timed(ctx, "replay.json_encode_trace", func() { err = enc.Encode(s.out.trace) })
	}
	return c, err
}

// serviceSelfUS is a traced request's time in the service layer itself: its
// ServeHTTP time minus the daemon's root spans and the replayed child calls
// those spans do not cover (JSON decode, proxy build, schedule key, JSON
// encode). Inline trace decoding is already a root span.
func serviceSelfUS(s *sample, c replayCost) float64 {
	dur := float64(s.dur.Nanoseconds()) / 1e3
	return dur - rootCover(s.out.trace.TraceEvents) - c.decode - c.build - c.key - c.encodeTraced
}

// runTraced is the --trace 1 run: one setup, one window with every other
// request traced, then the replays. It reports every per-layer metric.
func runTraced(cfg config, gd *golden) (*result, error) {
	srv, p, warm, _, err := setupN(cfg, gd, 1)
	if err != nil {
		return nil, err
	}
	m := srv.Metrics()
	hits0, misses0 := m.CacheHits.Load(), m.CacheMisses.Load()
	fb0 := m.FallbackDense.Load() + m.FallbackHeuristic.Load() + m.FallbackStatic.Load()
	runtime.GC()
	gc0 := gcCPU()
	stream := append(append([]*request(nil), p.tracedHead...), p.stream...)
	samples, elapsed := drive(srv, stream, cfg.wl.clients, cfg.window, true)
	gc1 := gcCPU()
	checkMonotone(samples)
	hits, misses := m.CacheHits.Load()-hits0, m.CacheMisses.Load()-misses0
	fallbacks := m.FallbackDense.Load() + m.FallbackHeuristic.Load() + m.FallbackStatic.Load() - fb0

	var traced, untraced []float64
	var docs [][]obs.Event
	for _, s := range samples {
		ms := float64(s.dur.Nanoseconds()) / 1e6
		if s.traced && s.out.trace != nil {
			traced = append(traced, ms)
			docs = append(docs, s.out.trace.TraceEvents)
		} else if !s.traced {
			untraced = append(untraced, ms)
		}
	}
	if len(docs) == 0 || len(untraced) == 0 {
		return nil, fmt.Errorf("traced run completed %d traced and %d untraced requests; need both", len(docs), len(untraced))
	}
	sort.Float64s(traced)
	sort.Float64s(untraced)
	nTraced := float64(len(docs))
	agg := aggregateSpans(docs)
	spanMS := func(name string) float64 {
		if a := agg[name]; a != nil {
			return a.totalUS / 1e3 / nTraced
		}
		return 0
	}
	selfMS := func(name string) float64 {
		if a := agg[name]; a != nil {
			return a.selfUS / 1e3 / nTraced
		}
		return 0
	}
	countPerOp := func(name string) float64 {
		if a := agg[name]; a != nil {
			return float64(a.count) / nTraced
		}
		return 0
	}

	// Replays, under the benchmark's own trace.
	benchTrace := obs.NewTrace(1 << 16)
	rctx := obs.WithTrace(context.Background(), benchTrace)
	var (
		sum     replayCost
		selfUS  []float64
		nReplay int
	)
	for i := range samples {
		s := &samples[i]
		if !s.traced || s.out.trace == nil || s.out.verdict != ok {
			continue
		}
		if nReplay == replayLimit {
			break
		}
		c, err := replay(rctx, s)
		if err != nil {
			benchTrace.Release()
			return nil, fmt.Errorf("replaying %s: %w", s.req.path, err)
		}
		nReplay++
		sum.decode += c.decode
		sum.build += c.build
		sum.traceDecode += c.traceDecode
		sum.digest += c.digest
		sum.key += c.key
		sum.encode += c.encode
		sum.builds += c.builds
		sum.traceDecodes += c.traceDecodes
		sum.digests += c.digests
		sum.keys += c.keys
		sum.digestAllocs += c.digestAllocs
		selfUS = append(selfUS, serviceSelfUS(s, c))
	}
	benchTrace.Release()

	// Reply-reported counts over every timed request that ran a solve.
	var (
		pivots, refacts, elims, solves, warmStarts       float64
		realizes, repairs                                float64
		allocs, allocIters, allocSolves, unconverged     float64
		windowed, warmRate, escalations, rescues, merged float64
	)
	for _, s := range samples {
		o := s.out
		if o.verdict != ok || o.cached {
			continue
		}
		if st := o.stats; st != nil {
			pivots += float64(st.SimplexPivots)
			refacts += float64(st.Refactorizations)
			elims += float64(st.PresolveRows + st.PresolveCols)
			solves += float64(st.Solves)
			warmStarts += float64(st.WarmStarts)
		}
		if o.realized != nil {
			realizes++
			repairs += float64(o.realized.Repairs)
		}
		if s.req.path == "/v1/cluster" {
			allocs++
			allocIters += float64(o.clusterIters)
			allocSolves += float64(o.clusterSolves)
			if !o.clusterConverged {
				unconverged++
			}
		}
		if w := o.windowed; w != nil {
			windowed++
			warmRate += w.WarmStartRate
			escalations += float64(w.Escalations)
			rescues += float64(w.NumericalRescues)
			merged += ratio(float64(w.MergedTasks), float64(s.req.tasks))
		}
	}

	res := newResult(samples, warm)
	set := func(name string, v float64) { res.set(perLayer, name, v) }
	set("service.self_us", mean(selfUS))
	set("service.json_decode_us", ratio(sum.decode, float64(nReplay)))
	set("service.json_encode_us", ratio(sum.encode, float64(nReplay)))
	set("service.cache_hit_frac", ratio(float64(hits), float64(hits+misses)))
	set("workloads.build_us", ratio(sum.build, float64(sum.builds)))
	set("trace.decode_ms", ratio(sum.traceDecode, float64(sum.traceDecodes))/1e3)
	set("dag.digest_us", ratio(sum.digest, float64(sum.digests)))
	set("dag.digest_allocs", ratio(sum.digestAllocs, float64(sum.digests)))
	set("dag.key_us", ratio(sum.key, float64(sum.keys)))
	set("dag.slice_us", spanMS("dag.slice")*1e3)
	set("problem.ir_build_ms", spanMS("problem.ir[build]"))
	irCached, irAll := countPerOp("problem.ir[cached]"), countPerOp("problem.ir[cached]")+countPerOp("problem.ir[build]")
	set("problem.ir_reuse_frac", ratio(irCached, irAll))
	set("core.solve_ms", spanMS("core.solve"))
	set("core.build_extract_ms", selfMS("core.iteration"))
	set("lp.solve_ms", spanMS("lp.solve"))
	set("lp.phase1_ms", spanMS("lp.phase1"))
	set("lp.phase2_ms", spanMS("lp.phase2"))
	set("lp.dual_ms", spanMS("lp.dual"))
	set("lp.refactorize_ms", spanMS("lp.refactorize"))
	set("lp.solve_self_ms", selfMS("lp.solve"))
	n := float64(len(samples))
	set("lp.pivots_per_op", pivots/n)
	set("lp.refactorizations_per_op", refacts/n)
	set("lp.presolve_elims_per_op", elims/n)
	set("lp.warm_start_frac", ratio(warmStarts, solves))
	set("schedule.realize_ms", spanMS("schedule.realize"))
	set("schedule.repairs_per_realize", ratio(repairs, realizes))
	set("sim.evaluate_ms", spanMS("sim.evaluate"))
	set("sim.evaluate_calls_per_op", countPerOp("sim.evaluate"))
	set("market.allocate_ms", spanMS("market.allocate"))
	set("market.iterations_per_alloc", ratio(allocIters, allocs))
	set("market.solves_per_alloc", ratio(allocSolves, allocs))
	set("market.unconverged_frac", ratio(unconverged, allocs))
	set("coarsen.ms", spanMS("dag.coarsen"))
	set("coarsen.merged_frac", ratio(merged, windowed))
	set("window.plan_ms", spanMS("window.plan"))
	set("window.build_ms", spanMS("window.build"))
	set("window.solve_ms", spanMS("window.solve"))
	set("window.stitch_ms", spanMS("window.stitch"))
	set("window.warm_start_rate", ratio(warmRate, windowed))
	set("window.escalations", ratio(escalations, windowed))
	set("window.rescues", ratio(rescues, windowed))
	set("resilience.fallbacks", float64(fallbacks))
	set("go.gc_cpu_frac", gc1.frac(gc0))
	overhead := percentile(traced, 50)/percentile(untraced, 50) - 1
	set("obs.overhead_frac", overhead)
	set("answer_gap_pct", answerGapPct(samples))

	fmt.Printf("workload %s seed %d (traced run): %d clients, %.1f s window, %d ops, %d traced, %d replayed\n",
		cfg.wl.name, cfg.seed, cfg.wl.clients, elapsed.Seconds(), len(samples), len(docs), nReplay)
	printFailures(samples, warm)
	printProperties(samples, p.warm)
	fmt.Printf("  tracing overhead: traced p50 %.4f ms vs untraced p50 %.4f ms (%+.2f%%)\n",
		percentile(traced, 50), percentile(untraced, 50), 100*overhead)
	fmt.Printf("  serving-layer replays (%d requests): decode %.2f us, build %.2f us x%d, trace decode %.3f ms x%d, digest %.2f us x%d, key %.2f us x%d, encode %.2f us\n",
		nReplay, ratio(sum.decode, float64(nReplay)), ratio(sum.build, float64(sum.builds)), sum.builds,
		ratio(sum.traceDecode, float64(sum.traceDecodes))/1e3, sum.traceDecodes,
		ratio(sum.digest, float64(sum.digests)), sum.digests, ratio(sum.key, float64(sum.keys)), sum.keys,
		ratio(sum.encode, float64(nReplay)))
	printLayerTable(agg, nTraced)
	p50 := percentile(untraced, 50)
	printIsolation(cfg.wl.name, agg, res, p50)
	if err := writeTraces(cfg, benchTrace, samples); err != nil {
		return nil, err
	}
	for _, d := range perLayer {
		fmt.Printf("  %-30s %14.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	return res, nil
}

// printLayerTable prints every harvested span name with its count, time and
// self time per traced request.
func printLayerTable(agg map[string]*spanAgg, nTraced float64) {
	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("  %-26s %10s %12s %12s   (per traced request)\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		a := agg[n]
		fmt.Printf("  %-26s %10.3f %12.4f %12.4f\n", n, float64(a.count)/nTraced, a.totalUS/1e3/nTraced, a.selfUS/1e3/nTraced)
	}
}

// printIsolation confirms the property the workload was chosen for.
func printIsolation(wl string, agg map[string]*spanAgg, res *result, p50ms float64) {
	val := func(n string) float64 { return res.Metrics[n].Value }
	var holds bool
	var what string
	switch wl {
	case "serve-hit":
		what = "no lp.solve span in the timed window"
		holds = agg["lp.solve"] == nil
	case "serve-miss":
		share := (val("service.self_us") + val("service.json_decode_us") + val("service.json_encode_us")) / 1e3 / p50ms
		what = fmt.Sprintf("service + json take %.2f%% of p50 (< 5%%)", 100*share)
		holds = share < 0.05
	case "warm-sweep":
		what = fmt.Sprintf("lp.warm_start_frac %.3f > 0", val("lp.warm_start_frac"))
		holds = val("lp.warm_start_frac") > 0
	case "large-trace":
		what = "dag.coarsen and window.* spans present"
		holds = agg["dag.coarsen"] != nil && agg["window.solve"] != nil && agg["window.build"] != nil &&
			agg["window.plan"] != nil && agg["window.stitch"] != nil
	}
	fmt.Printf("  isolation: %s: %v\n", what, holds)
}

// writeTraces writes the benchmark's replay spans through obs.WriteChrome,
// and the harvested daemon documents merged onto one timeline (each
// request's spans shifted to its start in the window, IDs and tracks
// renumbered), and validates both with obs.CheckNesting.
func writeTraces(cfg config, bench *obs.Trace, samples []sample) error {
	base := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d", cfg.wl.name, cfg.seed))
	var buf bytes.Buffer
	if err := obs.WriteChrome(&buf, bench); err != nil {
		return err
	}
	if err := writeChecked(base+"-replay.trace.json", buf.Bytes()); err != nil {
		return err
	}

	doc := obs.Document{DisplayTimeUnit: "ms"}
	var idBase, tidBase uint64
	for _, s := range samples {
		if s.out.trace == nil {
			continue
		}
		var maxID, maxTID uint64
		off := float64(s.start.Nanoseconds()) / 1e3
		for _, e := range s.out.trace.TraceEvents {
			maxID, maxTID = max(maxID, e.ID), max(maxTID, e.TID)
			e.TS += off
			e.ID += idBase
			e.TID += tidBase
			if e.Parent != 0 {
				e.Parent += idBase
			}
			doc.TraceEvents = append(doc.TraceEvents, e)
		}
		doc.DroppedSpans += s.out.trace.DroppedSpans
		idBase += maxID
		tidBase += maxTID
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return writeChecked(base+"-daemon.trace.json", data)
}

// writeChecked writes a Chrome document and reports whether it re-reads
// with valid nesting. A nesting error is an observability defect of the
// program, printed for the reader; it does not stop the run.
func writeChecked(path string, data []byte) error {
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	var doc obs.Document
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	nesting := "nesting ok"
	if err := obs.CheckNesting(doc.TraceEvents); err != nil {
		nesting = "NESTING ERROR: " + err.Error()
	}
	fmt.Printf("  trace: %s (%d spans, %d dropped, %s)\n", path, len(doc.TraceEvents), doc.DroppedSpans, nesting)
	return nil
}

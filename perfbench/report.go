package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"powercap/internal/service"
)

// setupN runs setup n times and keeps the last server; every warm-up answer
// is checked and returned.
func setupN(cfg config, gd *golden, n int) (*service.Server, *plan, []outcome, []float64, error) {
	var (
		srv    *service.Server
		p      *plan
		warm   []outcome
		setups []float64
	)
	for i := 0; i < n; i++ {
		srv, p = nil, nil // let the previous server go before the next setup
		runtime.GC()
		t0 := time.Now()
		s, pl, w, err := setup(cfg.wl, cfg.seed, gd, cfg.outDir)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		srv, p = s, pl
		warm = append(warm, w...)
	}
	return srv, p, warm, setups, nil
}

func latenciesMS(samples []sample) []float64 {
	lat := make([]float64, len(samples))
	for i, s := range samples {
		lat[i] = float64(s.dur.Nanoseconds()) / 1e6
	}
	sort.Float64s(lat)
	return lat
}

// peakRSSMB is the process's peak resident set (MB = 2^20 bytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// gcSample is the runtime's cumulative GC and total CPU time.
type gcSample struct{ gc, total float64 }

func gcCPU() gcSample {
	ms := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(ms)
	return gcSample{gc: ms[0].Value.Float64(), total: ms[1].Value.Float64()}
}

// frac is the share of CPU time spent in GC between s0 and s.
func (s gcSample) frac(s0 gcSample) float64 { return ratio(s.gc-s0.gc, s.total-s0.total) }

func floats(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}

// answerGapPct is the workload's answer quality: the mean realized
// bound_gap_pct over realized answers (serve-miss), else the mean windowed
// makespan gap to the uncoarsened reference (large-trace), else 0.
func answerGapPct(samples []sample) float64 {
	var realized, windowed []float64
	for _, s := range samples {
		if s.out.verdict != ok || s.out.cached {
			continue
		}
		if r := s.out.realized; r != nil {
			realized = append(realized, r.BoundGapPct)
		}
		if s.req.reference > 0 {
			windowed = append(windowed, (s.out.makespan/s.req.reference-1)*100)
		}
	}
	if len(realized) > 0 {
		return mean(realized)
	}
	return mean(windowed)
}

// printClasses prints the latency of each request kind (endpoint and
// graph family), the mixture the percentiles above are taken over.
func printClasses(samples []sample) {
	byClass := make(map[string][]float64)
	for _, s := range samples {
		family, _, _ := strings.Cut(s.req.graph, "/")
		if strings.HasPrefix(family, "synthetic-") {
			family = "synthetic"
		}
		class := strings.TrimPrefix(s.req.path, "/v1/") + " " + family
		if s.req.inline {
			class += " inline"
		}
		byClass[class] = append(byClass[class], float64(s.dur.Nanoseconds())/1e6)
	}
	names := make([]string, 0, len(byClass))
	for c := range byClass {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		lat := byClass[c]
		sort.Float64s(lat)
		fmt.Printf("  class %-24s n=%-6d p50_ms %10.4f  max_ms %10.4f\n", c, len(lat), percentile(lat, 50), lat[len(lat)-1])
	}
}

// printFailures lists the verdict counts and the first few reasons.
func printFailures(samples []sample, warm []outcome) {
	counts := make(map[verdict]int)
	var first []string
	note := func(o outcome) {
		if o.verdict == ok {
			return
		}
		counts[o.verdict]++
		if len(first) < 5 {
			first = append(first, o.verdict.String()+": "+o.why)
		}
	}
	for _, o := range warm {
		note(o)
	}
	for _, s := range samples {
		note(s.out)
	}
	if len(counts) == 0 {
		return
	}
	for v := failStatus; v <= failInvariant; v++ {
		if counts[v] > 0 {
			fmt.Printf("  FAILED %s: %d\n", v, counts[v])
		}
	}
	for _, f := range first {
		fmt.Printf("    %s\n", f)
	}
}

// properties are the measured input shares a later claim of the form
// "helps inputs with property X" cites.
type properties struct {
	HitShare       float64 `json:"hit_share"`
	InlineShare    float64 `json:"inline_share"`
	RealizeShare   float64 `json:"realize_share"`
	IRReuseShare   float64 `json:"ir_reuse_share"`
	WarmStartShare float64 `json:"warm_start_share"`
	MeanBodyBytes  float64 `json:"mean_body_bytes"`
}

// measureProperties computes the shares over the timed samples. IR reuse
// is the share of backend-solving requests whose graph the warm-up or an
// earlier request already brought to the server; warm starts are the share
// of reported LP solves that started from a prior basis.
func measureProperties(samples []sample, warm []*request) properties {
	var p properties
	n := float64(len(samples))
	seen := make(map[string]bool)
	for _, r := range warm {
		seen[r.graph] = true
	}
	var solving, reused, solves, warmStarts, bytes float64
	for _, s := range samples {
		bytes += float64(len(s.req.body))
		if s.out.cached {
			p.HitShare++
		}
		if s.req.inline {
			p.InlineShare++
		}
		if s.req.realize {
			p.RealizeShare++
		}
		if !s.out.cached {
			solving++
			if seen[s.req.graph] {
				reused++
			}
			seen[s.req.graph] = true
		}
		if st := s.out.stats; st != nil {
			solves += float64(st.Solves)
			warmStarts += float64(st.WarmStarts)
		}
	}
	p.HitShare = ratio(p.HitShare, n)
	p.InlineShare = ratio(p.InlineShare, n)
	p.RealizeShare = ratio(p.RealizeShare, n)
	p.IRReuseShare = ratio(reused, solving)
	p.WarmStartShare = ratio(warmStarts, solves)
	p.MeanBodyBytes = ratio(bytes, n)
	return p
}

func printProperties(samples []sample, warm []*request) {
	data, _ := json.Marshal(measureProperties(samples, warm)) // plain floats: cannot fail
	fmt.Printf("  properties: %s\n", data)
}

// specJSON renders the BENCHMARK.json this benchmark implements.
func specJSON() ([]byte, error) {
	type wlSpec struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerSpec struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wlSpec    `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layerSpec `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadList {
		doc.Workloads = append(doc.Workloads, wlSpec{w.name, w.why})
	}
	doc.EndToEnd = endToEnd
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerSpec{d.Name, d.Unit, d.Better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

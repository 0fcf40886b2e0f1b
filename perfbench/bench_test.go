package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"powercap/internal/obs"
	"powercap/internal/service"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false}, // the median has 9 samples beyond it
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{999, 90, true}, // p99 would have 9.99 beyond
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 90: 9, 99: 10, 100: 10, 1: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", p, got, want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFailureClassification(t *testing.T) {
	solve := &request{path: "/v1/solve", golden: []float64{2.0}}
	realize := &request{path: "/v1/solve", golden: []float64{2.0}, realize: true}
	windowed := &request{path: "/v1/solve", golden: []float64{2.0}, reference: 1.9}
	sweep := &request{path: "/v1/sweep", golden: []float64{1.0, 1.5}}
	cluster := &request{path: "/v1/cluster", budgetW: 100}

	good := service.SolveResponse{MakespanS: 2.0, Stats: &service.StatsJSON{Solves: 1}}
	with := func(f func(r *service.SolveResponse)) []byte {
		r := good
		f(&r)
		return mustMarshal(t, r)
	}
	goodCluster := service.ClusterResponse{BudgetW: 100, Converged: true, Jobs: []service.ClusterJobJSON{
		{Name: "a", CapW: 60, FloorW: 20, MakespanS: 1},
		{Name: "b", CapW: 40, FloorW: 20, MakespanS: 1},
	}}
	withCluster := func(f func(r *service.ClusterResponse)) []byte {
		r := goodCluster
		r.Jobs = append([]service.ClusterJobJSON(nil), goodCluster.Jobs...)
		f(&r)
		return mustMarshal(t, r)
	}

	for _, tc := range []struct {
		name string
		req  *request
		code int
		body []byte
		want verdict
	}{
		{"ok", solve, 200, with(func(*service.SolveResponse) {}), ok},
		{"non-2xx", solve, 500, []byte(`{"error":"boom"}`), failStatus},
		{"429", solve, 429, []byte(`{"error":"busy"}`), failStatus},
		{"degraded", solve, 200, with(func(r *service.SolveResponse) { r.Degraded = true; r.DegradedRung = "dense" }), failDegraded},
		{"browned", solve, 200, with(func(r *service.SolveResponse) { r.Brownout = "windowed" }), failBrowned},
		{"degraded beats golden", solve, 200, with(func(r *service.SolveResponse) { r.Degraded = true; r.MakespanS = 9 }), failDegraded},
		{"cap violation", realize, 200, with(func(r *service.SolveResponse) {
			r.Realized = &service.RealizedJSON{MakespanS: 2.1, CapViolationW: 0.5}
		}), failCapViolation},
		{"realized clean", realize, 200, with(func(r *service.SolveResponse) {
			r.Realized = &service.RealizedJSON{MakespanS: 2.1}
		}), ok},
		{"realized below bound", realize, 200, with(func(r *service.SolveResponse) {
			r.Realized = &service.RealizedJSON{MakespanS: 1.9}
		}), failInvariant},
		{"realize missing", realize, 200, with(func(*service.SolveResponse) {}), failInvariant},
		{"seam violation", windowed, 200, with(func(r *service.SolveResponse) {
			r.Windowed = &service.WindowedJSON{SeamViolationW: 1}
		}), failCapViolation},
		{"golden mismatch", solve, 200, with(func(r *service.SolveResponse) { r.MakespanS = 2.0001 }), failGolden},
		{"within tolerance", solve, 200, with(func(r *service.SolveResponse) { r.MakespanS = 2.0 * (1 + 1e-9) }), ok},
		{"infeasible", &request{path: "/v1/solve"}, 200, with(func(r *service.SolveResponse) { r.Infeasible = true; r.MakespanS = 0 }), failInvariant},
		{"bad json", solve, 200, []byte(`{`), failInvariant},
		{"sweep ok", sweep, 200, mustMarshal(t, service.SweepResponse{Points: []service.SweepPointJSON{{MakespanS: 1.0}, {MakespanS: 1.5}}}), ok},
		{"sweep golden", sweep, 200, mustMarshal(t, service.SweepResponse{Points: []service.SweepPointJSON{{MakespanS: 1.0}, {MakespanS: 1.6}}}), failGolden},
		{"sweep point infeasible", sweep, 200, mustMarshal(t, service.SweepResponse{Points: []service.SweepPointJSON{{MakespanS: 1.0}, {Infeasible: true}}}), failInvariant},
		{"cluster ok", cluster, 200, withCluster(func(*service.ClusterResponse) {}), ok},
		{"cluster over budget", cluster, 200, withCluster(func(r *service.ClusterResponse) { r.Jobs[0].CapW = 70 }), failCapViolation},
		{"cluster degraded job", cluster, 200, withCluster(func(r *service.ClusterResponse) { r.Jobs[1].Degraded = true }), failDegraded},
		{"cluster unconverged is reported, not failed", cluster, 200, withCluster(func(r *service.ClusterResponse) { r.Converged = false }), ok},
		{"cluster below floor", cluster, 200, withCluster(func(r *service.ClusterResponse) { r.Jobs[1].FloorW = 45 }), failInvariant},
	} {
		if got := check(tc.req, tc.code, tc.body).verdict; got != tc.want {
			t.Errorf("%s: verdict %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestMonotoneAcrossRequests(t *testing.T) {
	mk := func(graph string, capW, makespan float64) sample {
		return sample{req: &request{path: "/v1/solve", graph: graph, capW: capW}, out: outcome{makespan: makespan}}
	}
	samples := []sample{
		mk("a", 50, 2.0), mk("a", 40, 2.5), mk("a", 60, 2.2), // 60 W above 50 W's bound
		mk("b", 40, 3.0), mk("b", 45, 2.9),
	}
	if got := checkMonotone(samples); got != 1 {
		t.Fatalf("marked %d, want 1", got)
	}
	if samples[2].out.verdict != failInvariant {
		t.Errorf("the 60 W solve should be marked, got %v", samples[2].out.verdict)
	}
}

func TestSeedDeterminism(t *testing.T) {
	gd, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	bodies := func(wl *workload, seed int64) [][]byte {
		p, err := wl.gen(seed, gd)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		var out [][]byte
		for _, r := range append(append([]*request(nil), p.warm...), p.stream...) {
			out = append(out, r.body)
		}
		return out
	}
	for _, wl := range workloadList {
		a, b, c := bodies(wl, 7), bodies(wl, 7), bodies(wl, 8)
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d bodies for one seed", wl.name, len(a), len(b))
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: body %d differs between two runs of seed 7", wl.name, i)
			}
		}
		same := len(a) == len(c)
		for i := 0; same && i < len(a); i++ {
			same = bytes.Equal(a[i], c[i])
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 generated identical streams", wl.name)
		}
	}
}

func TestMissCapsNeverRepeat(t *testing.T) {
	gd, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	p, err := genMiss(3, gd)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[float64]bool)
	for _, r := range p.stream {
		if seen[r.capW] {
			t.Fatalf("cap %g W sent twice", r.capW)
		}
		seen[r.capW] = true
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	evs := []obs.Event{
		{Name: "root", ID: 1, TS: 0, Dur: 100},
		{Name: "a", ID: 2, Parent: 1, TS: 10, Dur: 20}, // [10,30]
		{Name: "b", ID: 3, Parent: 1, TS: 20, Dur: 30}, // [20,50], overlaps a
		{Name: "c", ID: 4, Parent: 1, TS: 90, Dur: 30}, // [90,120], clipped to 100
		{Name: "a1", ID: 5, Parent: 2, TS: 12, Dur: 5}, // inside a
		{Name: "other", ID: 6, TS: 150, Dur: 10},       // second root
		{Name: "other2", ID: 7, TS: 155, Dur: 10},      // overlapping root
	}
	self := selfTimes(evs)
	for id, want := range map[uint64]float64{1: 100 - 40 - 10, 2: 15, 3: 30, 4: 30, 5: 5, 6: 10} {
		if got := self[id]; math.Abs(got-want) > 1e-9 {
			t.Errorf("self(%d) = %g, want %g", id, got, want)
		}
	}
	if got := rootCover(evs); got != 100+15 {
		t.Errorf("rootCover = %g, want 115", got)
	}
	agg := aggregateSpans([][]obs.Event{evs, evs})
	if a := agg["a"]; a.count != 2 || a.totalUS != 40 || a.selfUS != 30 {
		t.Errorf("aggregate a = %+v", *a)
	}
	ir := obs.Event{Name: "problem.ir", Args: map[string]any{"cached": true}}
	if spanName(ir) != "problem.ir[cached]" {
		t.Errorf("cached problem.ir named %q", spanName(ir))
	}
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var a, b any
	if err := json.Unmarshal(want, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(got, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("BENCHMARK.json does not match the benchmark; regenerate with `go run . -spec > ../BENCHMARK.json`")
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"powercap"
	"powercap/internal/service"
	"powercap/internal/trace"
	"powercap/internal/workloads"
)

// The four traffic mixes. Every one is closed loop: each client sends its
// next request only after the previous reply, the way pcsched scripts and a
// cluster scheduler call pcschedd. The seed drives every draw below; the
// daemon sees only the generated bodies.

// specIters is the iteration count of every named proxy the benchmark asks
// for (the service exhibit's size: one cold 8-rank solve is tens of ms).
const specIters = 6

// request is one generated operation: where it goes, its body, and what the
// oracle knows about the answer.
type request struct {
	path string
	body []byte

	// graph identifies the application graph (family/ranks/seed or the
	// trace name); capW is the per-socket cap of a solve.
	graph string
	capW  float64

	inline  bool // body carries an inline trace instead of a named proxy
	realize bool // realize=replay requested

	// golden lists the expected LP makespans: one for a solve, one per cap
	// for a sweep; nil when only invariants apply. reference is the
	// large-trace quality reference (monolithic LP of the coarsened graph).
	golden    []float64
	reference float64
	// tasks is the graph's task count (for coarsen.merged_frac).
	tasks int
	// budgetW is the site budget of a cluster request.
	budgetW float64
}

// plan is one workload's generated inputs. warm is sent once, untimed, at
// the end of setup; stream is the timed sequence, consumed in order by all
// clients, and the traced run sends tracedHead before it. A run that
// exhausts its stream stops early rather than repeat a request the
// workload promises is fresh.
type plan struct {
	warm       []*request
	tracedHead []*request
	stream     []*request
}

// workload describes one traffic mix.
type workload struct {
	name    string
	why     string
	clients int
	// setups is how many times setup runs per --trace 0 run; setup_s is
	// their median.
	setups int
	gen    func(seed int64, g *golden) (*plan, error)
}

var workloadList = []*workload{
	{
		name:    "serve-hit",
		why:     "repeated keys after warm-up: every request is a cache hit, so time goes to decode, resolve, digest/key, LRU lookup and encode",
		clients: 2, setups: 3, gen: genHit,
	},
	{
		name:    "serve-miss",
		why:     "every cap is new: cold simplex, presolve, IR build, LP build/extract and realize; serving layers are a few percent",
		clients: 2, setups: 9, gen: genMiss,
	},
	{
		name:    "warm-sweep",
		why:     "11-cap ladders and cluster allocations: warm dual-simplex re-solves and CapSession re-aims that serve-miss bypasses",
		clients: 2, setups: 9, gen: genSweep,
	},
	{
		name:    "large-trace",
		why:     "1 MB-class inline traces through coarsen and the windowed solve; no other workload reaches these layers",
		clients: 1, setups: 3, gen: genLarge,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloadList {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloadList))
	for i, w := range workloadList {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// graphKey names a named-proxy graph; solveKey one LP of it. The golden file
// is keyed by solveKey.
func graphKey(family string, ranks int, seed int64) string {
	return fmt.Sprintf("%s/%d/%d", family, ranks, seed)
}

func solveKey(family string, ranks int, seed int64, capW float64) string {
	return graphKey(family, ranks, seed) + "/" + strconv.FormatFloat(capW, 'g', -1, 64)
}

func spec(family string, ranks int, seed int64) *service.WorkloadSpec {
	return &service.WorkloadSpec{Name: family, Ranks: ranks, Iters: specIters, Seed: seed}
}

// proxy builds a named proxy exactly as the service resolves a WorkloadSpec.
func proxy(family string, ranks int, seed int64) (*powercap.Workload, error) {
	return powercap.WorkloadByName(family, powercap.WorkloadParams{
		Ranks: ranks, Iterations: specIters, Seed: seed,
	})
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain request structs are marshalled here
	}
	return b
}

// ---- serve-hit ----------------------------------------------------------

var (
	hitFamilies = []string{"CoMD", "LULESH", "BT", "SP"}
	hitRanks    = []int{8, 16}
	hitCaps     = []float64{55, 45, 65} // in popularity order
)

const (
	hitSeed        = 1
	hitInlineShare = 0.25
	hitZipfS       = 1.2
	hitStreamLen   = 1 << 17
)

type hitKey struct {
	family string
	ranks  int
	capW   float64
}

// hitKeys is the fixed key universe in Zipf rank order (rank 0 most
// popular). The order is not seeded, so every seed sees the same
// popularity profile and only the draw sequence changes.
func hitKeys() []hitKey {
	var out []hitKey
	for _, c := range hitCaps {
		for _, r := range hitRanks {
			for _, f := range hitFamilies {
				out = append(out, hitKey{f, r, c})
			}
		}
	}
	return out
}

// genHit: 24 keys (CoMD/LULESH/BT/SP × 8,16 ranks × 3 caps), each as a
// named body and an inline-trace body of the same graph. Warm-up sends
// every body once; the stream is a seeded Zipf draw over the keys with a
// quarter of the draws sent inline.
func genHit(seed int64, gd *golden) (*plan, error) {
	keys := hitKeys()
	traces := make(map[string][]byte)
	named := make([]*request, len(keys))
	inline := make([]*request, len(keys))
	for i, k := range keys {
		gk := graphKey(k.family, k.ranks, hitSeed)
		if _, ok := traces[gk]; !ok {
			wl, err := proxy(k.family, k.ranks, hitSeed)
			if err != nil {
				return nil, err
			}
			traces[gk] = mustJSON(trace.Encode(k.family, wl.Graph, wl.EffScale))
		}
		want, err := gd.lookup(solveKey(k.family, k.ranks, hitSeed, k.capW))
		if err != nil {
			return nil, err
		}
		named[i] = &request{
			path:   "/v1/solve",
			body:   mustJSON(service.SolveRequest{Workload: spec(k.family, k.ranks, hitSeed), CapPerSocketW: k.capW}),
			graph:  gk,
			capW:   k.capW,
			golden: []float64{want},
		}
		inline[i] = &request{
			path:   "/v1/solve",
			body:   rawSolveBody(traces[gk], k.capW, 0, 0),
			graph:  gk,
			capW:   k.capW,
			inline: true,
			golden: []float64{want},
		}
	}
	p := &plan{}
	p.warm = append(append(p.warm, named...), inline...)
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, hitZipfS, 1, uint64(len(keys)-1))
	p.stream = make([]*request, hitStreamLen)
	for i := range p.stream {
		k := zipf.Uint64()
		if rng.Float64() < hitInlineShare {
			p.stream[i] = inline[k]
		} else {
			p.stream[i] = named[k]
		}
	}
	return p, nil
}

// rawSolveBody assembles a /v1/solve body around already-encoded trace JSON
// without re-encoding it.
func rawSolveBody(traceJSON []byte, capW float64, windows int, coarsenEps float64) []byte {
	var b bytes.Buffer
	b.Grow(len(traceJSON) + 96)
	b.WriteString(`{"trace":`)
	b.Write(traceJSON)
	b.WriteString(`,"cap_per_socket_w":`)
	b.WriteString(strconv.FormatFloat(capW, 'g', -1, 64))
	if windows > 0 {
		b.WriteString(`,"windows":`)
		b.WriteString(strconv.Itoa(windows))
	}
	if coarsenEps > 0 {
		b.WriteString(`,"coarsen_eps":`)
		b.WriteString(strconv.FormatFloat(coarsenEps, 'g', -1, 64))
	}
	b.WriteByte('}')
	return b.Bytes()
}

// ---- serve-miss ---------------------------------------------------------

// missCycle is the fixed family rotation. The repeats place the median
// inside the CoMD latency band and p90 inside the SP band rather than on a
// boundary between two families, so the percentiles do not jump with the
// seed.
var missCycle = []string{"CoMD", "LULESH", "BT", "CG", "FT", "SP", "CoMD", "SP", "CoMD"}

const (
	missRanks        = 8
	missSeedPool     = 3 // graph seeds 1..3: later requests reuse a cached IR
	missRealizeEvery = 4 // a quarter of the requests set realize=replay
	// Fresh caps lie on a 0.001 W grid offset by 0.0005 W; golden-sample
	// caps are whole watts plus 0.25, so the two never collide.
	missCapBase  = 40.0005
	missCapSteps = 35000
	// Every missSampleEvery-th request (from missSampleOffset) is the next
	// entry of the checked-in golden sample.
	missSampleEvery  = 12
	missSampleOffset = 5
	missSampleLen    = 24
	missStreamLen    = 8000
)

// missSample is the fixed serve-miss golden sample: entry j sits at stream
// position missSampleEvery*j+missSampleOffset and takes that position's
// family, so the sample does not disturb the family rotation.
type missEntry struct {
	family  string
	seed    int64
	capW    float64
	realize bool
}

func missSample() []missEntry {
	out := make([]missEntry, missSampleLen)
	for j := range out {
		pos := missSampleEvery*j + missSampleOffset
		out[j] = missEntry{
			family:  missCycle[pos%len(missCycle)],
			seed:    int64(1 + j%missSeedPool),
			capW:    40.25 + float64(j),
			realize: j%4 == 1,
		}
	}
	return out
}

func missRequest(family string, seed int64, capW float64, realize bool) *request {
	req := service.SolveRequest{Workload: spec(family, missRanks, seed), CapPerSocketW: capW}
	if realize {
		req.Realize = "replay"
	}
	return &request{
		path:    "/v1/solve",
		body:    mustJSON(req),
		graph:   graphKey(family, missRanks, seed),
		capW:    capW,
		realize: realize,
	}
}

// genMiss: every request names a cap no earlier request used. Graph seeds
// and the realize quarter follow fixed rotations from a seeded phase, so
// every run holds the same mix of families, graphs and realizations and the
// seed changes which caps meet which graphs. Input generation also builds
// the seed pool's graphs once, the same proxy construction the daemon
// repeats per request.
func genMiss(seed int64, gd *golden) (*plan, error) {
	for _, f := range missCycle[:6] {
		for s := int64(1); s <= missSeedPool; s++ {
			if _, err := proxy(f, missRanks, s); err != nil {
				return nil, err
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	capIdx := rng.Perm(missCapSteps)
	phase := rng.Intn(missSeedPool * missRealizeEvery)
	sample := missSample()
	p := &plan{stream: make([]*request, missStreamLen)}
	for i := range p.stream {
		if j := (i - missSampleOffset) / missSampleEvery; i >= missSampleOffset &&
			(i-missSampleOffset)%missSampleEvery == 0 && j < len(sample) {
			e := sample[j]
			r := missRequest(e.family, e.seed, e.capW, e.realize)
			want, err := gd.lookup(solveKey(e.family, missRanks, e.seed, e.capW))
			if err != nil {
				return nil, err
			}
			r.golden = []float64{want}
			p.stream[i] = r
			continue
		}
		turn := i/len(missCycle) + phase // how often this family came up before
		family := missCycle[i%len(missCycle)]
		gseed := int64(1 + turn%missSeedPool)
		realize := (turn/missSeedPool)%missRealizeEvery == 0
		capW := missCapBase + 0.001*float64(capIdx[i%missCapSteps])
		p.stream[i] = missRequest(family, gseed, capW, realize)
	}
	return p, nil
}

// ---- warm-sweep ---------------------------------------------------------

// sweepCycle alternates sweeps and cluster allocations, two sweeps per
// allocation, rotating the sweep proxy; "" marks a cluster slot. BT, the
// slowest sweep, fills a third of the slots, so the median sits in the
// middle of the BT band and p90 inside the cluster band instead of on a
// boundary between two request kinds.
var sweepCycle = []string{"CoMD", "", "BT", "LULESH", "", "BT"}

// sweepLadder is the descending 11-cap ladder (W per socket).
var sweepLadder = []float64{80, 76, 72, 68, 64, 60, 56, 52, 48, 44, 40}

const (
	sweepRanks    = 8
	sweepSeedPool = 3 // graph seeds and het-4mix seeds 1..3
	clusterMix    = "het-4mix"
	clusterRanks  = 4
	clusterIters  = 3
	clusterTolSPW = 1e-3
	// Budgets lie on a 0.0001 W-per-socket grid in 50-52 W: never repeated,
	// and narrow enough that allocations take similar iteration counts.
	clusterBudBase = 50.00005
	clusterBudStep = 20000
	sweepStreamLen = 4000
)

// genSweep: graph and mix seeds rotate from a seeded phase, so every run
// holds the same mix of ladders; cluster budgets are seeded and never
// repeat (an allocation at a repeated budget would be a cache hit).
func genSweep(seed int64, gd *golden) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	budIdx := rng.Perm(clusterBudStep)
	phase := rng.Intn(sweepSeedPool)
	clusters := make(map[int64]service.ClusterRequest, sweepSeedPool)
	p := &plan{stream: make([]*request, sweepStreamLen)}
	nCluster := 0
	for i := range p.stream {
		family := sweepCycle[i%len(sweepCycle)]
		gseed := int64(1 + (i/len(sweepCycle)+phase)%sweepSeedPool)
		if family == "" {
			base, ok := clusters[gseed]
			if !ok {
				var err error
				if base, err = clusterJobs(gseed); err != nil {
					return nil, err
				}
				clusters[gseed] = base
			}
			base.BudgetPerSocketW = clusterBudBase + 0.0001*float64(budIdx[nCluster%clusterBudStep])
			nCluster++
			p.stream[i] = &request{
				path:    "/v1/cluster",
				body:    mustJSON(base),
				graph:   fmt.Sprintf("%s/%d/%d", clusterMix, clusterRanks, gseed),
				budgetW: base.BudgetPerSocketW * float64(clusterRanks*len(base.Jobs)),
			}
			continue
		}
		want := make([]float64, len(sweepLadder))
		for k, c := range sweepLadder {
			v, err := gd.lookup(solveKey(family, sweepRanks, gseed, c))
			if err != nil {
				return nil, err
			}
			want[k] = v
		}
		p.stream[i] = &request{
			path:   "/v1/sweep",
			body:   mustJSON(service.SweepRequest{Workload: spec(family, sweepRanks, gseed), CapsPerSocketW: sweepLadder}),
			graph:  graphKey(family, sweepRanks, gseed),
			golden: want,
		}
	}
	return p, nil
}

// clusterJobs is a /v1/cluster request for the named mix at 4 ranks, the
// jobs sent as named specs, budget unset.
func clusterJobs(mixSeed int64) (service.ClusterRequest, error) {
	req := service.ClusterRequest{ToleranceSecPerW: clusterTolSPW}
	mjobs, err := workloads.Mix(clusterMix, workloads.Params{Ranks: clusterRanks, Iterations: clusterIters, Seed: mixSeed})
	if err != nil {
		return req, err
	}
	for _, mj := range mjobs {
		p := mj.Workload.Params
		req.Jobs = append(req.Jobs, service.ClusterJobSpec{
			Name:     mj.Name,
			Workload: &service.WorkloadSpec{Name: mj.Workload.Name, Ranks: p.Ranks, Iters: p.Iterations, Seed: p.Seed},
		})
	}
	return req, nil
}

// ---- large-trace --------------------------------------------------------

const (
	largeRanks      = 8
	largeEvents     = 2000
	largeTraces     = 3  // synthetic trace seeds 1..3
	largeCapsEach   = 16 // stream caps per trace: more than a window's worth
	largeWindows    = 3  // about 650 events per window
	largeCoarsenEps = 0.002
)

// largeCap is the k-th stream cap of trace t (t from 1): 0.75 W apart per
// trace and offset 0.25 W between traces, so no two requests share a cap.
// k = largeCapsEach is the trace's warm-up cap, above every stream cap.
func largeCap(t, k int) float64 {
	if k == largeCapsEach {
		return 62 + float64(t)
	}
	return 50 + 0.25*float64(t-1) + 0.75*float64(k)
}

func largeName(t int) string { return fmt.Sprintf("synthetic-%d", t) }

func largeKey(t, k int) string {
	return largeName(t) + "/" + strconv.FormatFloat(largeCap(t, k), 'g', -1, 64)
}

// largeInput is synthetic trace t's wire encoding and its decoded form,
// exactly the graph the daemon solves.
type largeInput struct {
	json  []byte
	graph *powercap.Graph
	eff   []float64
}

// largeTrace builds synthetic trace t.
func largeTrace(t int) (*largeInput, error) {
	wl := powercap.SyntheticWorkload(powercap.SynthParams{Ranks: largeRanks, Events: largeEvents, Seed: int64(t)})
	tf := trace.Encode(largeName(t), wl.Graph, wl.EffScale)
	js := mustJSON(tf)
	g, eff, err := trace.Decode(tf)
	if err != nil {
		return nil, err
	}
	return &largeInput{json: js, graph: g, eff: eff}, nil
}

// largePair is trace t's k-th cap.
type largePair struct{ t, k int }

// genLarge: warm-up solves each trace once at its warm-up cap, so the
// windowed IR of its coarsened graph is built during setup and every timed
// request re-aims a cached IR at a cap no request used before. The stream
// is a seeded order over the 48 (trace, cap) pairs, apart from the rescue
// pairs below.
func genLarge(seed int64, gd *golden) (*plan, error) {
	p := &plan{}
	inputs := make(map[int]*largeInput, largeTraces)
	var pairs []largePair
	for t := 1; t <= largeTraces; t++ {
		in, err := largeTrace(t)
		if err != nil {
			return nil, err
		}
		inputs[t] = in
		for k := 0; k < largeCapsEach; k++ {
			pairs = append(pairs, largePair{t, k})
		}
	}
	req := func(t, k int) (*request, error) {
		want, err := gd.lookup(largeKey(t, k))
		if err != nil {
			return nil, err
		}
		ref, err := gd.lookupRef(largeKey(t, k))
		if err != nil {
			return nil, err
		}
		in := inputs[t]
		return &request{
			path:      "/v1/solve",
			body:      rawSolveBody(in.json, largeCap(t, k), largeWindows, largeCoarsenEps),
			graph:     largeName(t),
			capW:      largeCap(t, k),
			inline:    true,
			golden:    []float64{want},
			reference: ref,
			tasks:     len(in.graph.Tasks),
		}, nil
	}
	for t := 1; t <= largeTraces; t++ {
		r, err := req(t, largeCapsEach)
		if err != nil {
			return nil, err
		}
		p.warm = append(p.warm, r)
	}
	// Two of the 51 windowed solves need a numerical rescue and take 5-7 s
	// instead of about 0.8 s: a third of the window, so drawing them would
	// make runs differ by how many they hit. The stream leaves both out;
	// the traced run opens with one, so window.rescues shows the rescue in
	// every traced run.
	rescue, err := req(largeRescue.t, largeRescue.k)
	if err != nil {
		return nil, err
	}
	p.tracedHead = []*request{rescue}
	rng := rand.New(rand.NewSource(seed))
	var order []largePair
	for _, i := range rng.Perm(len(pairs)) {
		if pr := pairs[i]; pr != largeRescue && pr != largeRescueSkipped {
			order = append(order, pr)
		}
	}
	for _, pr := range order {
		r, err := req(pr.t, pr.k)
		if err != nil {
			return nil, err
		}
		p.stream = append(p.stream, r)
	}
	return p, nil
}

// The (trace, cap index) pairs whose windowed solve needs a numerical
// rescue at the baseline: synthetic-1 at 55.25 W and synthetic-3 at
// 54.25 W.
var (
	largeRescue        = largePair{1, 7}
	largeRescueSkipped = largePair{3, 5}
)

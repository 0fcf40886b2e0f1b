package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"powercap"
	"powercap/internal/coarsen"
)

// golden is the checked-in correctness oracle. Every value was computed by
// direct facade calls, not through the daemon:
//
//   - LP: makespan of powercap.SystemFor(proxy).UpperBound at the cap, for
//     every serve-hit key, every warm-sweep ladder point and the serve-miss
//     golden sample (keyed by solveKey);
//   - Windowed: makespan of System.SolveWindowed with the large-trace
//     options (keyed "<trace>/<cap>");
//   - Reference: the monolithic LP bound (UpperBound, falling back to the
//     eta-file engine on a numerical breakdown) of the same coarsened graph, the quality reference answer_gap_pct compares the served
//     windowed answer to. It isolates the windowing gap; the monolithic LP
//     of the uncoarsened 2000-event trace is out of reach (tens of seconds
//     and gigabytes per cap).
//
// Regenerate with `go run . -golden golden.json` from this directory after
// a change that legitimately moves the bound.
type golden struct {
	LP        map[string]float64 `json:"lp"`
	Windowed  map[string]float64 `json:"windowed"`
	Reference map[string]float64 `json:"reference"`
}

//go:embed golden.json
var goldenJSON []byte

// goldenTol is the relative tolerance of every golden comparison.
const goldenTol = 1e-6

func loadGolden() (*golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

// lookup returns the golden LP or windowed makespan for key.
func (g *golden) lookup(key string) (float64, error) {
	if v, ok := g.LP[key]; ok {
		return v, nil
	}
	if v, ok := g.Windowed[key]; ok {
		return v, nil
	}
	return 0, fmt.Errorf("golden.json has no entry for %s (regenerate with -golden)", key)
}

func (g *golden) lookupRef(key string) (float64, error) {
	if v, ok := g.Reference[key]; ok {
		return v, nil
	}
	return 0, fmt.Errorf("golden.json has no reference for %s (regenerate with -golden)", key)
}

// goldenJob is one facade computation: key and the function producing it.
type goldenJob struct {
	table *map[string]float64
	key   string
	run   func() (float64, error)
}

// writeGolden recomputes every golden value with two workers and writes
// the file.
func writeGolden(path string) error {
	g := &golden{LP: map[string]float64{}, Windowed: map[string]float64{}, Reference: map[string]float64{}}
	var jobs []goldenJob
	lp := func(family string, ranks int, seed int64, capW float64) {
		jobs = append(jobs, goldenJob{&g.LP, solveKey(family, ranks, seed, capW), func() (float64, error) {
			wl, err := proxy(family, ranks, seed)
			if err != nil {
				return 0, err
			}
			s, err := powercap.SystemFor(wl, nil).UpperBound(wl.Graph, capW*float64(ranks))
			if err != nil {
				return 0, err
			}
			return s.MakespanS, nil
		}})
	}
	for _, k := range hitKeys() {
		lp(k.family, k.ranks, hitSeed, k.capW)
	}
	for _, e := range missSample() {
		lp(e.family, missRanks, e.seed, e.capW)
	}
	for _, f := range []string{"CoMD", "LULESH", "BT"} {
		for s := int64(1); s <= sweepSeedPool; s++ {
			for _, c := range sweepLadder {
				lp(f, sweepRanks, s, c)
			}
		}
	}
	for t := 1; t <= largeTraces; t++ {
		in, err := largeTrace(t)
		if err != nil {
			return err
		}
		for k := 0; k <= largeCapsEach; k++ {
			c := largeCap(t, k)
			jobs = append(jobs,
				goldenJob{&g.Windowed, largeKey(t, k), func() (float64, error) {
					sys := powercap.NewSystem(nil)
					sys.EffScale = in.eff
					ws, err := sys.SolveWindowed(in.graph, c*largeRanks, powercap.WindowedOptions{
						Windows: largeWindows, OverlapEvents: -1, CoarsenEps: largeCoarsenEps,
					})
					if err != nil {
						return 0, err
					}
					return ws.MakespanS, nil
				}},
				goldenJob{&g.Reference, largeKey(t, k), func() (float64, error) {
					cg, _, err := coarsen.Coarsen(in.graph, largeCoarsenEps)
					if err != nil {
						return 0, err
					}
					// The default LU engine can break down numerically on
					// these coarsened graphs; the reference eta-file engine
					// solves the same LP exactly, only slower.
					var s *powercap.Schedule
					for _, engine := range []powercap.Engine{powercap.EngineAuto, powercap.EngineEta} {
						sys := powercap.NewSystem(nil)
						sys.EffScale = in.eff
						sys.Engine = engine
						if s, err = sys.UpperBound(cg, c*largeRanks); err == nil {
							return s.MakespanS, nil
						}
					}
					return 0, err
				}})
		}
	}

	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		errs []error
	)
	next := make(chan goldenJob)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				v, err := j.run()
				mu.Lock()
				if err != nil {
					errs = append(errs, fmt.Errorf("%s: %w", j.key, err))
				} else {
					(*j.table)[j.key] = v
				}
				mu.Unlock()
			}
		}()
	}
	for i, j := range jobs {
		fmt.Fprintf(os.Stderr, "golden %d/%d %s\n", i+1, len(jobs), j.key)
		next <- j
	}
	close(next)
	wg.Wait()
	if len(errs) > 0 {
		return errs[0]
	}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

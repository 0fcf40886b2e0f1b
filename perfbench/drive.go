package main

import (
	"bytes"
	"context"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"powercap/internal/service"
)

// recorder is a reusable in-memory http.ResponseWriter: the benchmark calls
// ServeHTTP directly, so the numbers measure the daemon's handler and not the
// stdlib transport.
type recorder struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) Write(b []byte) (int, error) { return r.body.Write(b) }
func (r *recorder) WriteHeader(code int)        { r.code = code }

func (r *recorder) reset() {
	clear(r.header)
	r.code = http.StatusOK
	r.body.Reset()
}

// sample is one timed operation.
type sample struct {
	idx    int // position in the stream
	req    *request
	start  time.Duration // offset of the call from the start of the window
	dur    time.Duration // ServeHTTP wall time
	traced bool          // sent with ?trace=1
	out    outcome
}

// serve sends one request through h and checks the reply.
func serve(h http.Handler, rec *recorder, req *request, traced bool) (time.Duration, outcome) {
	path := req.path
	if traced {
		path += "?trace=1"
	}
	hr, err := http.NewRequestWithContext(context.Background(), http.MethodPost, path, bytes.NewReader(req.body))
	if err != nil {
		return 0, fail(failStatus, "building request: %v", err)
	}
	hr.Header.Set("Content-Type", "application/json")
	rec.reset()
	t0 := time.Now()
	h.ServeHTTP(rec, hr)
	d := time.Since(t0)
	return d, check(req, rec.code, rec.body.Bytes())
}

// drive runs the closed loop: clients goroutines take the next stream entry
// as soon as their previous reply is in, until the window closes or the
// stream runs out. With traceEven, every even stream position asks for the
// inline trace document. Samples come back in stream order.
func drive(h http.Handler, stream []*request, clients int, window time.Duration, traceEven bool) ([]sample, time.Duration) {
	var (
		next    atomic.Int64
		mu      sync.Mutex
		samples []sample
		wg      sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(window)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := &recorder{header: make(http.Header)}
			var mine []sample
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(stream) {
					break
				}
				traced := traceEven && i%2 == 0
				at := time.Since(start)
				d, out := serve(h, rec, stream[i], traced)
				if !traced {
					out.reply = nil // only traced requests are replayed; keep the live heap flat
				}
				mine = append(mine, sample{idx: i, req: stream[i], start: at, dur: d, traced: traced, out: out})
			}
			mu.Lock()
			samples = append(samples, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	sort.Slice(samples, func(a, b int) bool { return samples[a].idx < samples[b].idx })
	return samples, elapsed
}

// setup builds a fresh server and the workload's inputs, then sends the
// warm-up requests (two at a time) and checks their answers.
func setup(wl *workload, seed int64, gd *golden, outDir string) (*service.Server, *plan, []outcome, error) {
	srv := service.New(service.Config{Workers: 2, FlightSnapshotDir: outDir})
	p, err := wl.gen(seed, gd)
	if err != nil {
		return nil, nil, nil, err
	}
	warm := make([]outcome, len(p.warm))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := &recorder{header: make(http.Header)}
			for {
				i := int(next.Add(1) - 1)
				if i >= len(p.warm) {
					return
				}
				_, warm[i] = serve(srv, rec, p.warm[i], false)
			}
		}()
	}
	wg.Wait()
	return srv, p, warm, nil
}

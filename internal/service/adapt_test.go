package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"testing"
	"time"

	"powercap"
	"powercap/internal/adapt"
	"powercap/internal/faultinject"
	"powercap/internal/slo"
)

// Service-level tests of the adaptive overload control plane: brownout
// guardrail precedence, the never-cache-brownout rule, Retry-After hints,
// the deadline and retry-budget shed paths, capacity parking, and the
// drain checkpoint. The controller's own hysteresis behavior is covered by
// the table tests in internal/adapt; here the controller is mostly driven
// by storing synthetic States directly.

// adaptServer builds a control-plane-enabled test server.
func adaptServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	cfg.Adapt.Enabled = true
	s, ts := newTestServer(t, cfg)
	return s, ts.URL
}

// postWithHeaders is postJSON plus request headers, returning the response
// so tests can read Retry-After.
func postWithHeaders(t *testing.T, url string, body any, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestBrownoutPlanGuardrails(t *testing.T) {
	base := func(r adapt.Rung) *adapt.State {
		return &adapt.State{Rung: r, CoarsenEps: 0.002, Windows: 4}
	}
	cases := []struct {
		name   string
		st     *adapt.State
		policy string
		req    SolveRequest
		want   *brownoutPlan
	}{
		{name: "controller off", st: nil, req: SolveRequest{Realize: "best"}, want: nil},
		{name: "full fidelity", st: &adapt.State{Rung: adapt.RungFull}, req: SolveRequest{Realize: "best"}, want: nil},
		{name: "draining beats every rung",
			st:   &adapt.State{Rung: adapt.RungHeuristic, Draining: true},
			req:  SolveRequest{Realize: "best"},
			want: nil},
		{name: "degraded=forbid beats every rung",
			st: base(adapt.RungHeuristic), policy: "forbid",
			req:  SolveRequest{Realize: "best"},
			want: nil},
		{name: "realize-down downgrades an expensive strategy",
			st:   base(adapt.RungRealizeDown),
			req:  SolveRequest{Realize: "best"},
			want: &brownoutPlan{rung: adapt.RungRealizeDown, realize: "down"}},
		{name: "realize-down no-op when nothing to downgrade",
			st:   base(adapt.RungRealizeDown),
			req:  SolveRequest{},
			want: nil},
		{name: "realize-down no-op when already down",
			st:   base(adapt.RungRealizeDown),
			req:  SolveRequest{Realize: "down"},
			want: nil},
		{name: "coarsen raises the epsilon",
			st:   base(adapt.RungCoarsen),
			req:  SolveRequest{},
			want: &brownoutPlan{rung: adapt.RungCoarsen, coarsenEps: 0.002}},
		{name: "coarsen never lowers a client epsilon",
			st:   base(adapt.RungCoarsen),
			req:  SolveRequest{CoarsenEps: 0.005},
			want: nil},
		{name: "windowed adds the decomposition",
			st:   base(adapt.RungWindowed),
			req:  SolveRequest{},
			want: &brownoutPlan{rung: adapt.RungWindowed, coarsenEps: 0.002, windows: 4}},
		{name: "heuristic rung",
			st:   base(adapt.RungHeuristic),
			req:  SolveRequest{},
			want: &brownoutPlan{rung: adapt.RungHeuristic, coarsenEps: 0.002, windows: 4, heuristic: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := brownoutFor(tc.st, tc.policy, &tc.req)
			switch {
			case got == nil && tc.want == nil:
			case got == nil || tc.want == nil:
				t.Fatalf("plan = %+v, want %+v", got, tc.want)
			case *got != *tc.want:
				t.Fatalf("plan = %+v, want %+v", *got, *tc.want)
			}
		})
	}
}

func TestBrownoutNeverCached(t *testing.T) {
	s, base := adaptServer(t, Config{Workers: 2})
	full := s.adaptState.Load() // the initial full-fidelity state

	s.adaptState.Store(&adapt.State{Rung: adapt.RungHeuristic, CoarsenEps: 0.002, Windows: 4})
	req := SolveRequest{Workload: fastWL, CapPerSocketW: 50}
	code, resp := solveJSON(t, base+"/v1/solve", req)
	if code != http.StatusOK {
		t.Fatalf("browned solve: status %d", code)
	}
	if resp.Brownout != "heuristic" || !resp.Degraded || resp.DegradedReason != "brownout:heuristic" {
		t.Fatalf("browned solve = brownout %q degraded %v reason %q",
			resp.Brownout, resp.Degraded, resp.DegradedReason)
	}
	if resp.Cached {
		t.Fatal("browned solve claims to be cached")
	}
	if n := s.metrics.BrownoutSolves.Load(); n != 1 {
		t.Fatalf("BrownoutSolves = %d, want 1", n)
	}

	// Recovery: the browned result must not have poisoned the cache — the
	// same request now runs a fresh full-fidelity solve.
	s.adaptState.Store(full)
	code, resp = solveJSON(t, base+"/v1/solve", req)
	if code != http.StatusOK || resp.Degraded || resp.Brownout != "" {
		t.Fatalf("post-recovery solve: status %d degraded %v brownout %q", code, resp.Degraded, resp.Brownout)
	}
	if resp.Cached {
		t.Fatal("full-fidelity solve after brownout served from cache: brownout result was cached")
	}
	// And the full-fidelity result does cache.
	if _, resp = solveJSON(t, base+"/v1/solve", req); !resp.Cached {
		t.Fatal("repeat full-fidelity solve not cached")
	}
}

func TestBrownoutPrefersCachedFullFidelity(t *testing.T) {
	s, base := adaptServer(t, Config{Workers: 2})
	req := SolveRequest{Workload: fastWL, CapPerSocketW: 55}
	if code, _ := solveJSON(t, base+"/v1/solve", req); code != http.StatusOK {
		t.Fatalf("warmup solve failed: %d", code)
	}

	// Under the deepest brownout, a request whose full-fidelity answer is
	// already in the LRU gets that answer, not a heuristic schedule.
	s.adaptState.Store(&adapt.State{Rung: adapt.RungHeuristic, CoarsenEps: 0.002, Windows: 4})
	code, resp := solveJSON(t, base+"/v1/solve", req)
	if code != http.StatusOK || !resp.Cached || resp.Brownout != "" || resp.Degraded {
		t.Fatalf("cached hit under brownout: status %d cached %v brownout %q degraded %v",
			code, resp.Cached, resp.Brownout, resp.Degraded)
	}
}

func TestBrownoutForbidPrecedence(t *testing.T) {
	s, base := adaptServer(t, Config{Workers: 2})
	s.adaptState.Store(&adapt.State{Rung: adapt.RungHeuristic, CoarsenEps: 0.002, Windows: 4})

	// ?degraded=forbid beats every rung: the request runs full fidelity.
	code, resp := solveJSON(t, base+"/v1/solve?degraded=forbid",
		SolveRequest{Workload: fastWL, CapPerSocketW: 60})
	if code != http.StatusOK {
		t.Fatalf("forbid solve under brownout: status %d", code)
	}
	if resp.Degraded || resp.Brownout != "" {
		t.Fatalf("forbid solve browned anyway: degraded %v brownout %q", resp.Degraded, resp.Brownout)
	}
	if n := s.metrics.BrownoutSolves.Load(); n != 0 {
		t.Fatalf("BrownoutSolves = %d under degraded=forbid, want 0", n)
	}
}

func TestRetryAfterOnQueueFull(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	// Occupy every admission token so the next solve is rejected.
	for i := 0; i < cap(s.queue); i++ {
		s.queue <- struct{}{}
	}
	defer func() {
		for i := 0; i < cap(s.queue); i++ {
			<-s.queue
		}
	}()

	resp, body := postWithHeaders(t, ts.URL+"/v1/solve",
		SolveRequest{Workload: fastWL, CapPerSocketW: 50}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429", resp.StatusCode, body)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After %q, want an integer ≥ 1", resp.Header.Get("Retry-After"))
	}
}

func TestRetryBudgetGate(t *testing.T) {
	cfg := Config{Workers: 2}
	cfg.Adapt = adapt.Config{Enabled: true, RetryBurst: 2}
	s, ts := newTestServer(t, cfg)

	// Warm the cache so budgeted retries are cheap hits.
	req := SolveRequest{Workload: fastWL, CapPerSocketW: 50}
	if code, _ := solveJSON(t, ts.URL+"/v1/solve", req); code != http.StatusOK {
		t.Fatal("warmup failed")
	}

	// The bucket holds RetryBurst tokens and refills at the observed solve
	// completion rate — zero until an epoch ticks, so exactly two declared
	// retries pass and the third is shed.
	hdr := map[string]string{"X-Retry-Attempt": "1"}
	for i := 0; i < 2; i++ {
		if resp, body := postWithHeaders(t, ts.URL+"/v1/solve", req, hdr); resp.StatusCode != http.StatusOK {
			t.Fatalf("budgeted retry %d: status %d (%s)", i, resp.StatusCode, body)
		}
	}
	resp, body := postWithHeaders(t, ts.URL+"/v1/solve", req, hdr)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget retry: status %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("over-budget 429 lacks Retry-After")
	}
	if n := s.metrics.ShedRetryBudget.Load(); n != 1 {
		t.Fatalf("ShedRetryBudget = %d, want 1", n)
	}

	// Non-retry traffic is never gated by the budget.
	if resp, body := postWithHeaders(t, ts.URL+"/v1/solve", req, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("first-attempt request gated: status %d (%s)", resp.StatusCode, body)
	}
}

func TestDeadlineShed(t *testing.T) {
	s, base := adaptServer(t, Config{Workers: 2})
	// Sheddding armed with an estimate no request deadline can cover.
	s.adaptState.Store(&adapt.State{Rung: adapt.RungRealizeDown, Shedding: true, EstSolveS: 3600, Workers: 2})

	resp, body := postWithHeaders(t, base+"/v1/solve",
		SolveRequest{Workload: fastWL, CapPerSocketW: 65, TimeoutMS: 1000}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("doomed solve: status %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed 429 lacks Retry-After")
	}
	if n := s.metrics.ShedDeadline.Load(); n != 1 {
		t.Fatalf("ShedDeadline = %d, want 1", n)
	}

	// A request whose deadline covers the estimate is admitted.
	s.adaptState.Store(&adapt.State{Rung: adapt.RungRealizeDown, Shedding: true, EstSolveS: 0.001, Workers: 2})
	if code, _ := solveJSON(t, base+"/v1/solve",
		SolveRequest{Workload: fastWL, CapPerSocketW: 65}); code != http.StatusOK {
		t.Fatalf("viable solve shed: status %d", code)
	}
}

func TestParkingAndOccupancy(t *testing.T) {
	s, _ := adaptServer(t, Config{Workers: 4, QueueDepth: 4})
	if got := s.queueOccupancy(); got != 0 {
		t.Fatalf("idle occupancy %g", got)
	}

	// Shrink to 2 workers + 2 queue slots: 4 of 8 admission tokens and 2 of
	// 4 worker slots get parked.
	s.applyParking(&adapt.State{Workers: 2, QueueDepth: 2})
	if pq, ps := s.parkedQueue.Load(), s.parkedSem.Load(); pq != 4 || ps != 2 {
		t.Fatalf("parked queue %d sem %d, want 4 and 2", pq, ps)
	}
	if used := s.queueUsed(); used != 0 {
		t.Fatalf("queueUsed %d with only parked tokens, want 0", used)
	}

	// A request still gets through at the reduced capacity, and its token
	// is not confused with a parked one.
	release, err := s.acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire under parking: %v", err)
	}
	if used := s.queueUsed(); used != 1 {
		t.Fatalf("queueUsed %d with one request, want 1", used)
	}
	if got := s.queueOccupancy(); got != 0.25 {
		t.Fatalf("occupancy %g, want 0.25 (1 of 4 effective)", got)
	}
	release()

	// Restore: every parked token comes back out (unpark never blocks).
	s.applyParking(&adapt.State{Workers: 4, QueueDepth: 4})
	if pq, ps := s.parkedQueue.Load(), s.parkedSem.Load(); pq != 0 || ps != 0 {
		t.Fatalf("parked queue %d sem %d after restore, want 0 and 0", pq, ps)
	}
	if n := len(s.queue) + len(s.sem); n != 0 {
		t.Fatalf("%d stray channel tokens after restore", n)
	}
}

func TestDrainCheckpointSnapsUp(t *testing.T) {
	s, base := adaptServer(t, Config{Workers: 2, QueueDepth: 4})
	rt := s.adaptRT

	// Walk the controller down two rungs with synthetic saturated epochs,
	// and park some capacity, as a loaded controller would have.
	hot := adapt.Signals{Requests: 100, Rejected: 100, EpochS: 1}
	for i := 0; i < 4; i++ {
		st, _ := rt.ctrl.Step(hot)
		s.adaptState.Store(st)
		s.applyParking(st)
	}
	if st := s.adaptState.Load(); st.Rung != adapt.RungCoarsen {
		t.Fatalf("setup rung %v, want coarsen", st.Rung)
	}
	if s.parkedQueue.Load() == 0 {
		t.Fatal("setup parked nothing")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Drain snapped the ladder up to full fidelity, pinned it there, and
	// returned every parked token.
	st := s.adaptState.Load()
	if st.Rung != adapt.RungFull || !st.Draining {
		t.Fatalf("post-drain state rung %v draining %v, want full/true", st.Rung, st.Draining)
	}
	if pq, ps := s.parkedQueue.Load(), s.parkedSem.Load(); pq != 0 || ps != 0 {
		t.Fatalf("parked queue %d sem %d after drain, want 0 and 0", pq, ps)
	}
	// Further saturated epochs must not descend while draining.
	for i := 0; i < 6; i++ {
		st, trans := rt.ctrl.Step(hot)
		if st.Rung != adapt.RungFull || len(trans) != 0 {
			t.Fatalf("draining controller descended: rung %v trans %v", st.Rung, trans)
		}
	}
	// And the API refuses new work.
	if code, _ := postJSON(t, base+"/v1/solve",
		SolveRequest{Workload: fastWL, CapPerSocketW: 50}); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain solve status %d, want 503", code)
	}
}

func TestAdaptOffNilState(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	if s.adaptState.Load() != nil || s.adaptRT != nil {
		t.Fatal("disabled control plane left state behind")
	}
	if _, ok := healthz(t, ts.URL)["adapt"]; ok {
		t.Fatal("healthz reports adapt block with the control plane off")
	}
	stop := s.StartAdapt() // must be a no-op
	stop()
	m := metricsMap(t, ts.URL)
	if m["pcschedd_adapt_workers"] != 2 || m["pcschedd_brownout_rung"] != 0 {
		t.Fatalf("disarmed gauges: workers %g rung %g", m["pcschedd_adapt_workers"], m["pcschedd_brownout_rung"])
	}
}

// TestTwinChaosRecovery is the chaos-smoke extension for the control plane:
// under an lp-nan + worker-panic fault storm the controller must descend
// (open breakers saturate pressure), and once the faults clear it must walk
// back to full fidelity — with the breakers re-closed — within a bounded
// number of epochs.
func TestTwinChaosRecovery(t *testing.T) {
	faultinject.Disable()
	cfg := Config{
		Workers: 2,
		Resilience: powercap.ResilienceConfig{
			BackoffBase:     100 * time.Microsecond,
			BreakerCooldown: 50 * time.Millisecond,
		},
	}
	cfg.Adapt = adapt.Config{Enabled: true}
	// The twin compresses hours of traffic into milliseconds, so the SLO
	// windows feeding the controller must compress with it: a wall-clock
	// 5m fast window would hold the storm's errors for the whole test and
	// pin the burn-driven pressure high long after the faults clear.
	cfg.SLO = slo.Config{FastWindow: 50 * time.Millisecond, SlowWindow: 500 * time.Millisecond, Buckets: 10}
	s, ts := newTestServer(t, cfg)

	// NaNs alone are repaired in place by the solver's refactorization
	// rescue; stalls are what actually fail a rung and charge its breaker.
	faultinject.Configure(7, map[faultinject.Class]float64{
		faultinject.LPNaN:       0.5,
		faultinject.LPStall:     1.0,
		faultinject.WorkerPanic: 0.2,
	})
	defer faultinject.Disable()

	// Storm: every LP pivot loop stalls out, so the ladder descends to its
	// heuristic and the sparse breaker opens; each epoch the
	// controller sees open breakers (pressure 1) and walks the brownout
	// ladder down.
	for i := 0; i < 10; i++ {
		code, _ := postJSON(t, ts.URL+"/v1/solve",
			SolveRequest{Workload: fastWL, CapPerSocketW: 50 + float64(i)})
		if code != http.StatusOK && code != http.StatusInternalServerError &&
			code != http.StatusTooManyRequests {
			t.Fatalf("storm solve %d: unexpected status %d", i, code)
		}
		s.AdaptEpoch()
	}
	stormSt := s.adaptState.Load()
	if stormSt.Rung == adapt.RungFull {
		t.Fatalf("controller never descended under the fault storm (pressure %g)", stormSt.Pressure)
	}
	if br := s.breakerStates(); br["sparse"] == "closed" {
		t.Fatal("sparse breaker still closed after an all-NaN storm")
	}
	t.Logf("storm: rung %v after 10 epochs, breakers %v", stormSt.Rung, s.breakerStates())

	// Recovery: faults off, cooldown elapses, and calm epochs (each with a
	// fresh successful solve) must re-close the breakers and return the
	// ladder to full fidelity within 30 epochs.
	faultinject.Disable()
	time.Sleep(60 * time.Millisecond) // past BreakerCooldown
	recovered := -1
	for i := 0; i < 30; i++ {
		// Let the compressed SLO window rotate between epochs, so the
		// storm's errors age out the way hours do in production.
		time.Sleep(5 * time.Millisecond)
		code, _ := postJSON(t, ts.URL+"/v1/solve",
			SolveRequest{Workload: fastWL, CapPerSocketW: 100 + float64(i)})
		if code != http.StatusOK {
			t.Fatalf("recovery solve %d: status %d", i, code)
		}
		st := s.AdaptEpoch()
		if st.Rung == adapt.RungFull && s.breakerStates()["sparse"] == "closed" {
			recovered = i + 1
			break
		}
	}
	if recovered < 0 {
		t.Fatalf("no recovery within 30 epochs: rung %v breakers %v",
			s.adaptState.Load().Rung, s.breakerStates())
	}
	t.Logf("recovered to full fidelity with closed breakers after %d calm epochs", recovered)

	// Fully recovered service serves clean full-fidelity schedules.
	code, resp := solveJSON(t, ts.URL+"/v1/solve", SolveRequest{Workload: fastWL, CapPerSocketW: 200})
	if code != http.StatusOK || resp.Degraded || resp.Brownout != "" {
		t.Fatalf("post-recovery solve: status %d degraded %v brownout %q", code, resp.Degraded, resp.Brownout)
	}
}

package service

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"powercap/internal/faultinject"
	"powercap/internal/obs"
)

// TestMetricsAgreeWithFlightRecorder drives one in-process server through
// every kind of request outcome and checks that each counter the
// accounting step derives moved by exactly what the flight recorder's wide
// events imply — /metrics and the flight recorder tell one story.
func TestMetricsAgreeWithFlightRecorder(t *testing.T) {
	faultinject.Disable()
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: -1})
	before := metricsMap(t, ts.URL)

	post := func(path string, body any, want int) {
		t.Helper()
		if code, out := postJSON(t, ts.URL+path, body); code != want {
			t.Fatalf("%s: status %d (%s), want %d", path, code, out, want)
		}
	}
	solve := SolveRequest{Workload: fastWL, CapPerSocketW: 55}
	post("/v1/solve", solve, http.StatusOK)                                             // miss
	post("/v1/solve", solve, http.StatusOK)                                             // hit
	post("/v1/solve", SolveRequest{Workload: fastWL, CapPerSocketW: 10}, http.StatusOK) // infeasible
	post("/v1/solve", SolveRequest{Workload: fastWL}, http.StatusBadRequest)

	// The only worker slot (and, with no queue, the only admission token)
	// is held, so a new key is turned away.
	release, err := s.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	post("/v1/solve", SolveRequest{Workload: fastWL, CapPerSocketW: 58}, http.StatusTooManyRequests)
	release()

	post("/v1/solve", SolveRequest{Workload: slowWL, CapPerSocketW: 60, TimeoutMS: 0.001}, http.StatusGatewayTimeout)
	post("/v1/sweep", SweepRequest{Workload: fastWL, CapsPerSocketW: []float64{55, 10}}, http.StatusOK)
	post("/v1/compare", CompareRequest{
		Workload:      &WorkloadSpec{Name: "CoMD", Ranks: 2, Iters: 6, Seed: 1, Scale: 0.1},
		CapPerSocketW: 55,
	}, http.StatusOK)
	post("/v1/cluster", ClusterRequest{Jobs: []ClusterJobSpec{{Name: "a", Workload: fastWL}}, BudgetW: 120}, http.StatusOK)

	// An LU breakdown rescued inside lp.Solve after one ladder retry: an
	// undegraded answer whose kernel block carries the rescue.
	faultinject.Configure(57, map[faultinject.Class]float64{faultinject.LPNaN: 0.3})
	code, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		Workload: &WorkloadSpec{Name: "CoMD", Ranks: 6, Iters: 6, Seed: 1, Scale: 0.1}, CapPerSocketW: 57, Whole: true,
	})
	faultinject.Disable()
	var rescued SolveResponse
	if code != http.StatusOK || json.Unmarshal(body, &rescued) != nil {
		t.Fatalf("rescued solve: status %d (%s)", code, body)
	}
	if rescued.Degraded || rescued.Stats.Rescues < 1 {
		t.Fatalf("fault fixture no longer rescues in-solve: degraded=%v rescues=%d", rescued.Degraded, rescued.Stats.Rescues)
	}

	// Both LP rungs stalled: a degraded answer from the heuristic rung.
	faultinject.Configure(31, map[faultinject.Class]float64{faultinject.LPStall: 1.0})
	post("/v1/solve", SolveRequest{Workload: fastWL, CapPerSocketW: 59}, http.StatusOK)
	faultinject.Disable()

	after := metricsMap(t, ts.URL)
	events := fetchFlightDump(t, ts.URL+"/debug/flightrecorder?n=0").Events
	if len(events) != 11 {
		t.Fatalf("flight recorder holds %d events, want 11", len(events))
	}

	// What the events imply, restated from the wide-event contract: hits
	// and coalesced waiters count only as cache outcomes; every other
	// request's answer and kernel block count once.
	want := map[string]float64{}
	var maxEta, maxRowNorm float64
	outcomes := map[string]int{}
	for _, ev := range events {
		outcomes[ev.Outcome]++
		switch ev.Outcome {
		case obs.OutcomeBadRequest:
			want["pcschedd_bad_requests_total"]++
		case obs.OutcomeQueueFull:
			want["pcschedd_rejected_total"]++
		case obs.OutcomeShedDeadline:
			want[`pcschedd_shed_total{reason="deadline"}`]++
		case obs.OutcomeCanceled:
			want["pcschedd_canceled_total"]++
		}
		if ev.Cache == "bypass" {
			want["pcschedd_cache_errors_total"]++
		}
		if ev.Err == "" {
			switch ev.Cache {
			case "hit":
				want["pcschedd_cache_hits_total"]++
			case "coalesced":
				want["pcschedd_cache_hits_total"]++
				want["pcschedd_coalesced_total"]++
			case "miss", "bypass":
				want["pcschedd_cache_misses_total"]++
			}
		}
		if ev.Cache == "hit" || ev.Cache == "coalesced" {
			continue
		}
		want["pcschedd_infeasible_total"] += float64(ev.Infeasible)
		if ev.Degraded {
			want["pcschedd_degraded_total"]++
			want["pcschedd_fallback_"+ev.Rung+"_total"]++
		}
		if ev.Brownout != "" {
			want["pcschedd_brownout_solves_total"]++
		}
		want["pcschedd_solve_retries_total"] += float64(ev.SolveRetries)
		k := ev.Kernel
		want["pcschedd_warm_starts_total"] += float64(k.WarmStarts)
		want["pcschedd_pivots_total"] += float64(k.SimplexPivots)
		want["pcschedd_lp_refactorizations_total"] += float64(k.Refactorizations)
		want["pcschedd_lp_rescues_total"] += float64(k.Rescues)
		want["pcschedd_lp_pivot_rejections_total"] += float64(k.PivotRejections)
		want["pcschedd_lp_factor_tau_retries_total"] += float64(k.FactorTauRetries)
		want["pcschedd_lp_nan_recoveries_total"] += float64(k.NaNRecoveries)
		want["pcschedd_lp_bland_activations_total"] += float64(k.BlandActivations)
		want["pcschedd_lp_presolve_rows_total"] += float64(k.PresolveRows)
		want["pcschedd_lp_presolve_cols_total"] += float64(k.PresolveCols)
		maxEta = max(maxEta, float64(k.MaxEtaLen))
		maxRowNorm = max(maxRowNorm, k.RowNormRatio)
	}
	for _, name := range []string{
		"pcschedd_bad_requests_total", "pcschedd_rejected_total", `pcschedd_shed_total{reason="deadline"}`,
		"pcschedd_canceled_total", "pcschedd_cache_errors_total", "pcschedd_cache_hits_total",
		"pcschedd_coalesced_total", "pcschedd_cache_misses_total", "pcschedd_infeasible_total",
		"pcschedd_degraded_total", "pcschedd_fallback_heuristic_total", "pcschedd_fallback_static_total",
		"pcschedd_brownout_solves_total", "pcschedd_solve_retries_total", "pcschedd_warm_starts_total",
		"pcschedd_pivots_total", "pcschedd_lp_refactorizations_total", "pcschedd_lp_rescues_total",
		"pcschedd_lp_pivot_rejections_total", "pcschedd_lp_factor_tau_retries_total",
		"pcschedd_lp_nan_recoveries_total", "pcschedd_lp_bland_activations_total",
		"pcschedd_lp_presolve_rows_total", "pcschedd_lp_presolve_cols_total",
	} {
		if got := after[name] - before[name]; got != want[name] {
			t.Errorf("%s moved by %v, the flight recorder implies %v", name, got, want[name])
		}
	}
	if got := after["pcschedd_lp_max_eta_len"]; got != maxEta {
		t.Errorf("pcschedd_lp_max_eta_len %v, worst kernel block %v", got, maxEta)
	}
	if got := after["pcschedd_lp_row_norm_ratio_max"]; got != maxRowNorm {
		t.Errorf("pcschedd_lp_row_norm_ratio_max %v, worst kernel block %v", got, maxRowNorm)
	}

	// The traffic reached every outcome it was built to reach.
	for outcome, n := range map[string]int{
		obs.OutcomeOK: 8, obs.OutcomeBadRequest: 1, obs.OutcomeQueueFull: 1, obs.OutcomeCanceled: 1,
	} {
		if outcomes[outcome] != n {
			t.Errorf("%d events with outcome %q, want %d (all: %v)", outcomes[outcome], outcome, n, outcomes)
		}
	}
	for name, n := range map[string]float64{
		"pcschedd_infeasible_total":   2, // the solve and the sweep's 10 W point
		"pcschedd_cache_hits_total":   1,
		"pcschedd_cache_misses_total": 6, // solve, infeasible, compare, cluster, rescued, degraded
		"pcschedd_degraded_total":     1,
		"pcschedd_lp_rescues_total":   float64(rescued.Stats.Rescues),
	} {
		if want[name] != n {
			t.Errorf("events imply %s = %v, want %v", name, want[name], n)
		}
	}

	// Compare's event carries the solve shape, cache outcome and kernel
	// effort like solve and cluster; a miss's kernel block carries the
	// conditioning proxy.
	for _, ev := range events {
		switch {
		case ev.Path == "/v1/compare":
			if ev.Workload != "CoMD" || ev.CapW != 110 || ev.Cache != "miss" || ev.CacheKey == "" ||
				ev.DeadlineMS <= 0 || ev.SolveMS <= 0 || ev.Kernel.Solves == 0 {
				t.Errorf("compare event lacks its solve shape or kernel block: %+v", ev)
			}
		case ev.Path == "/v1/solve" && ev.Cache == "miss" && ev.Outcome == obs.OutcomeOK && ev.Infeasible == 0 && !ev.Degraded:
			if ev.Kernel.RowNormRatio <= 0 {
				t.Errorf("miss event kernel block has no row_norm_ratio: %+v", ev.Kernel)
			}
		case ev.Path == "/v1/solve" && ev.Infeasible == 1:
			if ev.Cache != "miss" {
				t.Errorf("infeasible solve event: cache %q", ev.Cache)
			}
		}
	}
}

// TestRequestTimeoutClamped: a timeout_ms too large for a time.Duration is
// clamped to MaxTimeout rather than overflowing into an expired deadline,
// on every endpoint that takes one.
func TestRequestTimeoutClamped(t *testing.T) {
	faultinject.Disable()
	_, ts := newTestServer(t, Config{Workers: 1})
	const huge = 1e13 // ms; × 1e6 overflows int64 nanoseconds
	for _, c := range []struct {
		path string
		body any
	}{
		{"/v1/solve", SolveRequest{Workload: fastWL, CapPerSocketW: 60, TimeoutMS: huge}},
		{"/v1/sweep", SweepRequest{Workload: fastWL, CapsPerSocketW: []float64{60}, TimeoutMS: huge}},
		{"/v1/cluster", ClusterRequest{Jobs: []ClusterJobSpec{{Name: "a", Workload: fastWL}}, BudgetW: 120, TimeoutMS: huge}},
	} {
		if code, body := postJSON(t, ts.URL+c.path, c.body); code != http.StatusOK {
			t.Errorf("%s with timeout_ms %g: status %d (%s), want 200", c.path, huge, code, body)
		}
	}
	for _, ev := range fetchFlightDump(t, ts.URL+"/debug/flightrecorder?n=0").Events {
		if want := 5 * 60 * 1e3; ev.DeadlineMS != want {
			t.Errorf("%s deadline budget %g ms, want the %g ms MaxTimeout", ev.Path, ev.DeadlineMS, want)
		}
	}
}

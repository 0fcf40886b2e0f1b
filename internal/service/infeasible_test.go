package service

import (
	"encoding/json"
	"net/http"
	"testing"
)

// TestInfeasibleCapSkipsSimplex: a cap below the job's exact power floor
// gets the service's infeasible verdict (200 with infeasible: true, as for
// any cap no schedule meets) without any simplex work. The request's inline
// trace holds no lp.solve span, and its wide event's kernel block counts
// no solve and no pivot.
func TestInfeasibleCapSkipsSimplex(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, body := postJSON(t, ts.URL+"/v1/solve?trace=1", SolveRequest{Workload: fastWL, CapPerSocketW: 10})
	if code != http.StatusOK {
		t.Fatalf("status %d (%s)", code, body)
	}
	var r SolveResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if !r.Infeasible {
		t.Fatalf("10 W/socket answered as feasible: %s", body)
	}
	if r.Trace == nil || len(r.Trace.TraceEvents) == 0 {
		t.Fatal("no inline trace")
	}
	for _, e := range r.Trace.TraceEvents {
		if e.Name == "lp.solve" {
			t.Fatalf("infeasible cap ran the simplex: lp.solve span %v", e.Args)
		}
	}

	var found bool
	for _, ev := range fetchFlightDump(t, ts.URL+"/debug/flightrecorder?n=0").Events {
		if ev.Path != "/v1/solve" || ev.Infeasible != 1 {
			continue
		}
		found = true
		if ev.Kernel.Solves != 0 || ev.Kernel.SimplexPivots != 0 {
			t.Fatalf("infeasible wide event kernel block: %d solves, %d pivots; want 0 and 0",
				ev.Kernel.Solves, ev.Kernel.SimplexPivots)
		}
	}
	if !found {
		t.Fatal("flight recorder holds no infeasible /v1/solve event")
	}
}

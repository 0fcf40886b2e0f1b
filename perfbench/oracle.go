package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"powercap/internal/obs"
	"powercap/internal/service"
)

// verdict classifies one answer. Every verdict but ok counts in fail_frac;
// when several apply, the first in this order wins.
type verdict int

const (
	ok               verdict = iota
	failStatus               // non-2xx response
	failDegraded             // served from below the fallback ladder's top rung
	failBrowned              // rerouted by the overload control plane
	failCapViolation         // realized schedule, window seam or cluster split over its power limit
	failGolden               // LP makespan differs from the checked-in oracle
	failInvariant            // any other broken invariant (see check)
)

var verdictNames = [...]string{"ok", "status", "degraded", "browned", "cap_violation", "golden", "invariant"}

func (v verdict) String() string { return verdictNames[v] }

// capTolW absorbs floating-point noise in reported watt excesses; a real
// violation is orders of magnitude larger.
const capTolW = 1e-6

// outcome is what the benchmark keeps from one reply.
type outcome struct {
	verdict verdict
	why     string
	cached  bool

	// makespan is a solve's LP (or windowed) makespan; 0 otherwise.
	makespan float64
	// stats is the solver effort the reply reports; only replies that ran
	// a backend solve (not cached) carry it.
	stats    *service.StatsJSON
	realized *service.RealizedJSON
	windowed *service.WindowedJSON

	clusterIters     int
	clusterSolves    int
	clusterConverged bool

	// reply is the decoded reply without its trace document, re-encoded by
	// the traced run for service.json_encode_us.
	reply any
	trace *obs.Document
}

func relDiff(got, want float64) float64 {
	return math.Abs(got-want) / math.Max(math.Abs(want), 1e-300)
}

func fail(v verdict, format string, args ...any) outcome {
	return withVerdict(outcome{}, v, format, args...)
}

// check classifies the reply to req: status code first, then the endpoint's
// answer against the oracle and invariants.
func check(req *request, code int, body []byte) outcome {
	if code < 200 || code > 299 {
		return fail(failStatus, "%s: HTTP %d: %.200s", req.path, code, body)
	}
	switch req.path {
	case "/v1/solve":
		var r service.SolveResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return fail(failInvariant, "solve reply: %v", err)
		}
		return checkSolve(req, &r)
	case "/v1/sweep":
		var r service.SweepResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return fail(failInvariant, "sweep reply: %v", err)
		}
		return checkSweep(req, &r)
	case "/v1/cluster":
		var r service.ClusterResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return fail(failInvariant, "cluster reply: %v", err)
		}
		return checkCluster(req, &r)
	}
	return fail(failInvariant, "no oracle for %s", req.path)
}

func checkSolve(req *request, r *service.SolveResponse) outcome {
	out := outcome{cached: r.Cached, makespan: r.MakespanS, realized: r.Realized, windowed: r.Windowed, trace: r.Trace}
	if !r.Cached {
		out.stats = r.Stats
	}
	r.Trace = nil
	out.reply = r
	switch {
	case r.Degraded:
		return withVerdict(out, failDegraded, "degraded (%s): %s", r.DegradedRung, r.DegradedReason)
	case r.Brownout != "":
		return withVerdict(out, failBrowned, "browned (%s)", r.Brownout)
	case r.Realized != nil && r.Realized.CapViolationW > capTolW:
		return withVerdict(out, failCapViolation, "realized cap violation %g W", r.Realized.CapViolationW)
	case r.Windowed != nil && r.Windowed.SeamViolationW > capTolW:
		return withVerdict(out, failCapViolation, "window seam violation %g W", r.Windowed.SeamViolationW)
	case len(req.golden) == 1 && relDiff(r.MakespanS, req.golden[0]) > goldenTol:
		return withVerdict(out, failGolden, "makespan %.9g, golden %.9g", r.MakespanS, req.golden[0])
	case r.Infeasible || !(r.MakespanS > 0):
		return withVerdict(out, failInvariant, "no schedule (infeasible=%v makespan=%g)", r.Infeasible, r.MakespanS)
	case req.realize && r.Realized == nil:
		return withVerdict(out, failInvariant, "realize requested, none returned")
	case r.Realized != nil && r.Realized.MakespanS < r.MakespanS*(1-goldenTol):
		return withVerdict(out, failInvariant, "realized makespan %.9g below the LP bound %.9g", r.Realized.MakespanS, r.MakespanS)
	case req.reference > 0 && r.Windowed == nil:
		return withVerdict(out, failInvariant, "windowed solve requested, no diagnostics returned")
	}
	return out
}

func checkSweep(req *request, r *service.SweepResponse) outcome {
	out := outcome{stats: r.Stats, trace: r.Trace}
	r.Trace = nil
	out.reply = r
	if len(r.Points) != len(req.golden) {
		return withVerdict(out, failInvariant, "sweep returned %d points, want %d", len(r.Points), len(req.golden))
	}
	for i, pt := range r.Points {
		if pt.Error != "" || pt.Infeasible {
			return withVerdict(out, failInvariant, "sweep point %g W: infeasible=%v %s", pt.PerSocketW, pt.Infeasible, pt.Error)
		}
		if relDiff(pt.MakespanS, req.golden[i]) > goldenTol {
			return withVerdict(out, failGolden, "sweep point %g W: makespan %.9g, golden %.9g", pt.PerSocketW, pt.MakespanS, req.golden[i])
		}
	}
	// The ladder descends, so the bound may only grow along it.
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].MakespanS < r.Points[i-1].MakespanS*(1-goldenTol) {
			return withVerdict(out, failInvariant, "sweep not monotone in cap at %g W", r.Points[i].PerSocketW)
		}
	}
	return out
}

func checkCluster(req *request, r *service.ClusterResponse) outcome {
	out := outcome{cached: r.Cached, clusterIters: r.Iterations, clusterSolves: r.Solves, clusterConverged: r.Converged, trace: r.Trace}
	if !r.Cached {
		out.stats = r.Stats
	}
	r.Trace = nil
	out.reply = r
	if r.Infeasible {
		return withVerdict(out, failInvariant, "cluster budget %g W infeasible", r.BudgetW)
	}
	sum := 0.0
	for _, j := range r.Jobs {
		if j.Degraded {
			return withVerdict(out, failDegraded, "cluster job %s degraded: %s", j.Name, j.DegradedReason)
		}
		if j.CapW < j.FloorW*(1-goldenTol) || !(j.MakespanS > 0) {
			return withVerdict(out, failInvariant, "cluster job %s: cap %g W below floor %g W or no makespan", j.Name, j.CapW, j.FloorW)
		}
		sum += j.CapW
	}
	if sum > r.BudgetW+capTolW || relDiff(r.BudgetW, req.budgetW) > goldenTol {
		return withVerdict(out, failCapViolation, "cluster caps sum to %g W against a %g W budget (asked %g W)", sum, r.BudgetW, req.budgetW)
	}
	// An allocation that stalls above the marginal-spread tolerance (its
	// transfer step shrank below the minimum) is a valid split the reply
	// labels converged=false. It is a quality signal, reported as
	// market.unconverged_frac, not a wrong answer.
	return out
}

func withVerdict(out outcome, v verdict, format string, args ...any) outcome {
	out.verdict = v
	out.why = fmt.Sprintf(format, args...)
	return out
}

// checkMonotone is the cross-request oracle: for one graph the LP bound may
// not grow as the cap grows (windowed answers are upper bounds of their own
// and are checked against the golden file instead). It marks every solve that breaks the order
// against the previous cap on its graph and returns how many it marked.
func checkMonotone(samples []sample) int {
	byGraph := make(map[string][]int)
	for i, s := range samples {
		if s.req.path == "/v1/solve" && s.out.verdict == ok && s.out.windowed == nil {
			byGraph[s.req.graph] = append(byGraph[s.req.graph], i)
		}
	}
	marked := 0
	for _, idx := range byGraph {
		sort.Slice(idx, func(a, b int) bool { return samples[idx[a]].req.capW < samples[idx[b]].req.capW })
		for k := 1; k < len(idx); k++ {
			prev, cur := &samples[idx[k-1]], &samples[idx[k]]
			if cur.out.makespan > prev.out.makespan*(1+goldenTol) {
				cur.out.verdict = failInvariant
				cur.out.why = fmt.Sprintf("%s: bound %.9g at %g W exceeds %.9g at %g W", cur.req.graph,
					cur.out.makespan, cur.req.capW, prev.out.makespan, prev.req.capW)
				marked++
			}
		}
	}
	return marked
}

package lp

import (
	"fmt"
	"math"
)

// Numerical-failure guards (DESIGN.md §10). The pivot loops watch for
// non-finite state — NaN/±Inf in the basic values or the phase objective —
// at the same checkpoints where they poll for cancellation, and first
// attempt recovery by rebuilding the basis inverse from scratch (reinversion
// recomputes xB = B⁻¹b from the clean standard form, so drift or a corrupted
// working vector is genuinely repaired). Unrepaired breakdowns surface to
// Solve's rescue (solver.go) as a typed *NumericalError, which distinguishes
// "bad problem" (Infeasible/Unbounded, a statement about the LP) from "bad
// luck" (a solve attempt that went numerically wrong and may succeed cold or
// on the eta engine). Only a breakdown the rescue cannot repair reaches
// callers.

// NumericalError reports a solve abandoned because the backend's working
// state went numerically bad (non-finite values, a singular basis at
// reinversion, or an FTRAN/BTRAN disagreement). It makes no statement about
// the problem. Solve has already retried cold and, under EngineAuto, on the
// eta engine; what remains for callers (internal/resilience) is a backoff
// retry or a heuristic fallback.
type NumericalError struct {
	// Backend names the implementation that broke down ("sparse" in
	// production; the dense test oracle reports "dense").
	Backend string
	// Reason is a short machine-readable description of the breakdown.
	Reason string
	// Pivots is how many pivots were spent before the breakdown.
	Pivots int
}

// Error implements error.
func (e *NumericalError) Error() string {
	return fmt.Sprintf("lp: %s backend numerical breakdown after %d pivots: %s",
		e.Backend, e.Pivots, e.Reason)
}

// statusNumerical is the pivot loops' internal "numerically stuck" outcome.
// It never escapes the package: solveSparse converts it into a
// *NumericalError before returning.
const statusNumerical Status = -1

// maxNaNRetries bounds refactorization-and-retry attempts per solve; a
// breakdown that survives this many reinversions is reported, not fought.
const maxNaNRetries = 3

// finiteAll reports whether every value is finite.
func finiteAll(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// finite reports whether x is a finite float.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

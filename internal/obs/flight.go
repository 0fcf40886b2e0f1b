package obs

// Flight recorder: a fixed-size in-memory ring of wide events — one
// structured record per request, always on. Where spans answer "where did
// the time go inside this solve", the wide event answers "why was this
// request slow, browned, or degraded" after the fact: it carries the
// admission-time control state (adapt epoch, pressure, SLO burn), the
// cache/singleflight outcome, the resilience rung that produced the
// schedule, and the kernel's numerical-health counters in one record.
//
// Memory model. The ring is sized to a power of two. Writers claim a slot
// with a single atomic add on the cursor — that is the only cross-writer
// coordination, mirroring the one-atomic-load disarm discipline of Start —
// then copy the event into the slot under that slot's private mutex. The
// mutex exists only to order a writer against a concurrent dumper on the
// same slot (a seqlock would be invisible to the Go race detector and is
// not a defined pattern under the Go memory model); it is uncontended in
// steady state, so the hot path is one atomic add, one uncontended
// lock/unlock, and a flat struct copy. WideEvent deliberately holds no
// maps, slices, or pointers: recording allocates nothing, and a dump while
// a writer lands sees either the old or the new record, never a torn one.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// NumLadderRungs is the length of the per-rung attempt counters in a
// WideEvent. The order is the resilience ladder's descent order: sparse,
// heuristic, static.
const NumLadderRungs = 3

// KernelHealth is the LP kernel's effort and numerical-health record
// (DESIGN.md §16), summed over the solves behind one answer. It is declared
// once: core.Stats, powercap.SolverStats, service.StatsJSON and the wide
// event's kernel block are all this struct, so their fields and JSON keys
// cannot drift apart. The effort fields always render; MaxEtaLen and
// RowNormRatio keep the worst solve seen. It copies flat into the ring.
type KernelHealth struct {
	Solves           int `json:"solves"`           // LP instances solved
	SimplexPivots    int `json:"simplex_pivots"`   // primal + dual pivots
	DualPivots       int `json:"dual_pivots"`      // dual pivots repairing warm starts
	WarmStarts       int `json:"warm_starts"`      // solves that reused a prior basis
	Refactorizations int `json:"refactorizations"` // basis reinversions

	MaxEtaLen        int     `json:"max_eta_len,omitempty"`        // peak basis-update file length
	PivotRejections  int     `json:"pivot_rejections,omitempty"`   // LU threshold-pivoting row rejections
	FactorTauRetries int     `json:"factor_tau_retries,omitempty"` // factorizations retried under strict pivoting
	NaNRecoveries    int     `json:"nan_recoveries,omitempty"`     // refactorize-and-retry repairs of NaN/Inf state
	Rescues          int     `json:"lp_rescues,omitempty"`         // extra lp.Solve attempts after numerical breakdowns
	BlandActivations int     `json:"bland_activations,omitempty"`  // anti-cycling fallback engagements
	PresolveRows     int     `json:"presolve_rows,omitempty"`      // rows eliminated by presolve
	PresolveCols     int     `json:"presolve_cols,omitempty"`      // columns eliminated by presolve
	RowNormRatio     float64 `json:"row_norm_ratio,omitempty"`     // worst max/min row-norm ratio (scaling proxy)
}

// Add accumulates other into k (merging sweep points, windows, slices).
func (k *KernelHealth) Add(other KernelHealth) {
	k.Solves += other.Solves
	k.SimplexPivots += other.SimplexPivots
	k.DualPivots += other.DualPivots
	k.WarmStarts += other.WarmStarts
	k.Refactorizations += other.Refactorizations
	if other.MaxEtaLen > k.MaxEtaLen {
		k.MaxEtaLen = other.MaxEtaLen
	}
	k.PivotRejections += other.PivotRejections
	k.FactorTauRetries += other.FactorTauRetries
	k.NaNRecoveries += other.NaNRecoveries
	k.Rescues += other.Rescues
	k.BlandActivations += other.BlandActivations
	k.PresolveRows += other.PresolveRows
	k.PresolveCols += other.PresolveCols
	if other.RowNormRatio > k.RowNormRatio {
		k.RowNormRatio = other.RowNormRatio
	}
}

// Request outcomes: the closed vocabulary of WideEvent.Outcome. An event
// starts as OutcomeOK; every failure a handler answers names its own.
const (
	OutcomeOK              = "ok"
	OutcomeBadRequest      = "bad_request"      // 400: malformed request
	OutcomeQueueFull       = "queue_full"       // 429: workers and queue occupied
	OutcomeShedDeadline    = "shed_deadline"    // 429: could not finish inside its deadline
	OutcomeCanceled        = "canceled"         // 504: deadline or client disconnect
	OutcomeDegradedRefused = "degraded_refused" // 503: ?degraded=forbid met a degraded answer
	OutcomeError           = "error"            // 500: backend failure
	OutcomePanic           = "panic"            // 500: contained panic
)

// WideEvent is one request's forensic record and the one source its
// per-request /metrics counters are derived from. Every field is a value
// type (no maps, slices, or pointers) so the ring write is a flat copy and
// the record path never allocates. Zero-valued fields are elided from JSON.
type WideEvent struct {
	TimeUnixNS int64   `json:"time_unix_ns"`
	RequestID  string  `json:"request_id"`
	Path       string  `json:"path"`
	Status     int     `json:"status"`
	Outcome    string  `json:"outcome,omitempty"`
	DurMS      float64 `json:"dur_ms"`

	// Solve shape as admitted (after any brownout rewrite).
	Workload   string  `json:"workload,omitempty"`
	CapW       float64 `json:"cap_w,omitempty"`
	Whole      bool    `json:"whole,omitempty"`
	Windows    int     `json:"windows,omitempty"`
	CoarsenEps float64 `json:"coarsen_eps,omitempty"`

	// Cache / singleflight outcome: "miss", "hit", "coalesced", "bypass".
	Cache    string `json:"cache,omitempty"`
	CacheKey string `json:"cache_key,omitempty"`
	// ClusterOrigin is the request ID of the /v1/cluster allocation that
	// parked this schedule, when the hit came from a parked entry.
	ClusterOrigin string `json:"cluster_origin,omitempty"`

	// Infeasible counts the infeasible answers returned: 1 for a solve
	// that proved its cap infeasible, the infeasible points of a sweep.
	Infeasible int `json:"infeasible,omitempty"`

	// Resilience outcome.
	Rung           string `json:"rung,omitempty"`
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	Brownout       string `json:"brownout,omitempty"`
	SolveRetries   int    `json:"solve_retries,omitempty"`
	// RungAttempts counts solve attempts per ladder rung in descent order
	// (sparse, heuristic, static) — the per-rung rescue
	// trail for this request.
	RungAttempts [NumLadderRungs]int32 `json:"rung_attempts"`

	// Deadline budget granted at admission vs solve wall actually spent.
	DeadlineMS float64 `json:"deadline_ms,omitempty"`
	SolveMS    float64 `json:"solve_ms,omitempty"`

	// Adaptive-controller state at admission.
	AdaptEpoch uint64  `json:"adapt_epoch,omitempty"`
	AdaptRung  string  `json:"adapt_rung,omitempty"`
	Pressure   float64 `json:"pressure,omitempty"`

	// SLO burn rates at admission (fast/slow windows, max over objectives
	// for the scalar feed; per-objective detail lives in /healthz).
	SLOFastBurn float64 `json:"slo_fast_burn,omitempty"`
	SLOSlowBurn float64 `json:"slo_slow_burn,omitempty"`

	// Kernel is filled only by the request whose flight ran the solve;
	// hits and coalesced waiters spent no kernel effort of their own.
	Kernel KernelHealth `json:"kernel"`
	Err    string       `json:"err,omitempty"`
}

// DefaultFlightSlots is the default ring capacity.
const DefaultFlightSlots = 256

// snapshotMinInterval rate-limits disk snapshots so a flapping breaker
// cannot turn the recorder into a disk-filling loop.
const snapshotMinInterval = 5 * time.Second

type flightSlot struct {
	mu  sync.Mutex
	ev  WideEvent
	set bool
}

// FlightRecorder is the lock-free-claim ring described in the package
// comment. The zero value is not usable; call NewFlightRecorder.
type FlightRecorder struct {
	mask   uint64
	seq    atomic.Uint64 // total events ever recorded
	slots  []flightSlot
	snapNS atomic.Int64 // unix ns of the last disk snapshot (rate limit)
}

// NewFlightRecorder returns a recorder holding the last n events (n is
// rounded up to a power of two; n <= 0 means DefaultFlightSlots).
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = DefaultFlightSlots
	}
	size := 1
	for size < n {
		size <<= 1
	}
	return &FlightRecorder{mask: uint64(size - 1), slots: make([]flightSlot, size)}
}

// Record stores one wide event, overwriting the oldest. Safe for
// concurrent use; never allocates.
func (f *FlightRecorder) Record(ev WideEvent) {
	i := f.seq.Add(1) - 1
	s := &f.slots[i&f.mask]
	s.mu.Lock()
	s.ev = ev
	s.set = true
	s.mu.Unlock()
}

// Total reports how many events have ever been recorded (recorded minus
// ring capacity = overwritten).
func (f *FlightRecorder) Total() uint64 { return f.seq.Load() }

// Snapshot copies out up to n of the most recent events, oldest first.
// n <= 0 means the whole ring.
func (f *FlightRecorder) Snapshot(n int) []WideEvent {
	cap := len(f.slots)
	if n <= 0 || n > cap {
		n = cap
	}
	seq := f.seq.Load()
	if uint64(n) > seq {
		n = int(seq)
	}
	out := make([]WideEvent, 0, n)
	for i := seq - uint64(n); i < seq; i++ {
		s := &f.slots[i&f.mask]
		s.mu.Lock()
		ev, ok := s.ev, s.set
		s.mu.Unlock()
		if ok {
			out = append(out, ev)
		}
	}
	return out
}

// flightDump is the JSON schema of a flight-recorder dump, shared by
// /debug/flightrecorder, SIGQUIT, and disk snapshots.
type flightDump struct {
	Reason     string      `json:"reason,omitempty"`
	TimeUnixNS int64       `json:"time_unix_ns"`
	Total      uint64      `json:"total_recorded"`
	Events     []WideEvent `json:"events"`
}

// WriteJSON writes the last n events (oldest first) as an indented JSON
// dump. reason tags the dump ("sigquit", "panic", "breaker-open:sparse", a
// debug-endpoint fetch, ...).
func (f *FlightRecorder) WriteJSON(w io.Writer, n int, reason string) error {
	d := flightDump{
		Reason:     reason,
		TimeUnixNS: time.Now().UnixNano(),
		Total:      f.Total(),
		Events:     f.Snapshot(n),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// SnapshotToDisk writes a full dump into dir (os.TempDir() when empty) and
// returns the file path. Snapshots are rate-limited to one per
// snapshotMinInterval — callers fire-and-forget this from panic recovery
// and breaker-open transitions, and a flapping breaker must not grind the
// disk. A rate-limited call returns ("", nil).
func (f *FlightRecorder) SnapshotToDisk(dir, reason string) (string, error) {
	now := time.Now().UnixNano()
	last := f.snapNS.Load()
	if now-last < int64(snapshotMinInterval) || !f.snapNS.CompareAndSwap(last, now) {
		return "", nil
	}
	if dir == "" {
		dir = os.TempDir()
	}
	name := fmt.Sprintf("flightrecorder-%s-%d.json", sanitizeReason(reason), now)
	path := filepath.Join(dir, name)
	fh, err := os.Create(path)
	if err != nil {
		return "", err
	}
	werr := f.WriteJSON(fh, 0, reason)
	cerr := fh.Close()
	if werr != nil {
		return "", werr
	}
	return path, cerr
}

// sanitizeReason keeps dump filenames shell- and filesystem-safe.
func sanitizeReason(reason string) string {
	if reason == "" {
		return "dump"
	}
	var b strings.Builder
	for _, r := range reason {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('.')
		}
	}
	return b.String()
}

package adapt

import (
	"reflect"
	"testing"

	"powercap/internal/resilience"
)

// TestPressureFracsMatchLadder: PressureFracs is positional over the
// resilience ladder's rungs, so the default needs exactly one entry per rung
// and must hand the last resort the whole remaining deadline.
func TestPressureFracsMatchLadder(t *testing.T) {
	fr := testConfig().withDefaults().PressureFracs
	if len(fr) != resilience.NumRungs {
		t.Fatalf("default PressureFracs %v has %d entries, ladder has %d rungs", fr, len(fr), resilience.NumRungs)
	}
	if last := fr[len(fr)-1]; last < 1 {
		t.Fatalf("default PressureFracs %v gives the last rung %v of the remaining deadline, want ≥ 1", fr, last)
	}
}

func testConfig() Config {
	return Config{
		Enabled:    true,
		Workers:    4,
		QueueDepth: 16,
		CacheSize:  8,
	}
}

// sig builds one epoch's Signals with the given pressure, encoded through
// queue occupancy (QueueCap 1000 keeps the rounding exact to 3 decimals).
func sig(p float64, breakersOpen int) Signals {
	return Signals{
		Requests:     100,
		QueueLen:     int(p * 1000),
		QueueCap:     1000,
		BreakersOpen: breakersOpen,
		EpochS:       1,
	}
}

// TestHysteresisTable drives the controller through scripted pressure
// phases and checks the rung at each phase boundary plus the total
// transition count — the boundary behavior of ISSUE satellite 3.
func TestHysteresisTable(t *testing.T) {
	type phase struct {
		epochs   int
		p        float64
		breakers int
		wantRung Rung
	}
	cases := []struct {
		name      string
		phases    []phase
		wantTrans uint64
	}{
		{
			// Defaults: enter 0.5 / exit 0.15, dwell 2/3, min-dwell 2.
			name: "below enter threshold never descends",
			phases: []phase{
				{epochs: 50, p: 0.49, wantRung: RungFull},
			},
			wantTrans: 0,
		},
		{
			name: "at enter threshold descends after dwell",
			phases: []phase{
				{epochs: 1, p: 0.5, wantRung: RungFull}, // dwell 1 < EnterDwell
				{epochs: 1, p: 0.5, wantRung: RungRealizeDown},
			},
			wantTrans: 1,
		},
		{
			name: "one hot epoch is not enough",
			phases: []phase{
				{epochs: 1, p: 0.9, wantRung: RungFull},
				{epochs: 10, p: 0.3, wantRung: RungFull}, // middle band resets dwell
				{epochs: 1, p: 0.9, wantRung: RungFull},
				{epochs: 10, p: 0.3, wantRung: RungFull},
			},
			wantTrans: 0,
		},
		{
			name: "exit needs to clear the low threshold",
			phases: []phase{
				{epochs: 2, p: 0.9, wantRung: RungRealizeDown},
				// 0.16 is calm but above ExitPressure: parked, no ascent.
				{epochs: 30, p: 0.16, wantRung: RungRealizeDown},
				// Truly low pressure ascends after ExitDwell=3.
				{epochs: 3, p: 0.1, wantRung: RungFull},
			},
			wantTrans: 2,
		},
		{
			name: "min dwell paces a sustained overload descent",
			phases: []phase{
				// EnterDwell=2 and MinDwell=2: one rung per 2 epochs.
				{epochs: 2, p: 1.0, wantRung: RungRealizeDown},
				{epochs: 2, p: 1.0, wantRung: RungCoarsen},
				{epochs: 2, p: 1.0, wantRung: RungWindowed},
				{epochs: 2, p: 1.0, wantRung: RungHeuristic},
				// Max rung clamps; pressure can push no further.
				{epochs: 20, p: 1.0, wantRung: RungHeuristic},
			},
			wantTrans: 4,
		},
		{
			name: "recovery walks all the way back to full fidelity",
			phases: []phase{
				{epochs: 8, p: 1.0, wantRung: RungHeuristic},
				// ExitDwell=3 paces the ascent: one rung per 3 epochs.
				{epochs: 3, p: 0.0, wantRung: RungWindowed},
				{epochs: 3, p: 0.0, wantRung: RungCoarsen},
				{epochs: 3, p: 0.0, wantRung: RungRealizeDown},
				{epochs: 3, p: 0.0, wantRung: RungFull},
				{epochs: 20, p: 0.0, wantRung: RungFull},
			},
			wantTrans: 8,
		},
		{
			name: "open breaker saturates pressure",
			phases: []phase{
				{epochs: 2, p: 0.0, breakers: 1, wantRung: RungRealizeDown},
			},
			wantTrans: 1,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(testConfig())
			for pi, ph := range tc.phases {
				var st *State
				for e := 0; e < ph.epochs; e++ {
					st, _ = c.Step(sig(ph.p, ph.breakers))
				}
				if st.Rung != ph.wantRung {
					t.Fatalf("phase %d (p=%.2f ×%d): rung %v, want %v",
						pi, ph.p, ph.epochs, st.Rung, ph.wantRung)
				}
			}
			if got := c.Transitions(); got != tc.wantTrans {
				t.Errorf("transitions = %d, want %d", got, tc.wantTrans)
			}
		})
	}
}

// TestFlapSuppression oscillates the signal hard across the whole band
// every epoch; the dwell counters must reset each time and the rung must
// never move.
func TestFlapSuppression(t *testing.T) {
	c := New(testConfig())
	for i := 0; i < 200; i++ {
		p := 0.0
		if i%2 == 0 {
			p = 0.95
		}
		st, trans := c.Step(sig(p, 0))
		if len(trans) != 0 {
			t.Fatalf("epoch %d: unexpected transition %+v", i, trans)
		}
		if st.Rung != RungFull {
			t.Fatalf("epoch %d: rung %v, want full", i, st.Rung)
		}
	}
	// A slower oscillation that still never holds EnterDwell consecutive
	// hot epochs: hot, hot is needed; hot, mid, hot, mid never descends.
	c = New(testConfig())
	for i := 0; i < 200; i++ {
		p := 0.3 // middle band: resets both counters
		if i%2 == 0 {
			p = 1.0
		}
		if st, _ := c.Step(sig(p, 0)); st.Rung != RungFull {
			t.Fatalf("epoch %d: rung %v, want full", i, st.Rung)
		}
	}
	if got := c.Transitions(); got != 0 {
		t.Errorf("transitions = %d, want 0", got)
	}
}

// TestDrainSnapsUpAndRefusesDescent covers satellite 2's controller half:
// BeginDrain snaps to full fidelity, reports the pre-snap state in its
// checkpoint, and every later epoch refuses to brown out again no matter
// the pressure.
func TestDrainSnapsUpAndRefusesDescent(t *testing.T) {
	c := New(testConfig())
	for i := 0; i < 6; i++ {
		c.Step(sig(1.0, 0)) // descend to RungWindowed
	}
	if r := c.State().Rung; r != RungWindowed {
		t.Fatalf("setup: rung %v, want windowed", r)
	}

	ck := c.BeginDrain()
	if ck.Rung != RungWindowed || ck.RungName != "windowed" {
		t.Errorf("checkpoint rung = %v (%q), want windowed", ck.Rung, ck.RungName)
	}
	if ck.Epoch != 6 {
		t.Errorf("checkpoint epoch = %d, want 6", ck.Epoch)
	}
	st := c.State()
	if st.Rung != RungFull || !st.Draining {
		t.Fatalf("post-drain state = rung %v draining %v, want full/true", st.Rung, st.Draining)
	}

	// Maximum pressure after drain: still no descent.
	for i := 0; i < 20; i++ {
		st, trans := c.Step(sig(1.0, 2))
		if len(trans) != 0 || st.Rung != RungFull {
			t.Fatalf("epoch %d after drain: rung %v trans %v, want full/none", i, st.Rung, trans)
		}
	}

	// BeginDrain is idempotent; the second checkpoint sees the snap.
	if ck2 := c.BeginDrain(); ck2.Rung != RungFull {
		t.Errorf("second checkpoint rung = %v, want full", ck2.Rung)
	}
}

// TestKnobDerivation checks the published knob targets at each rung:
// shedding + shrunken queue + tightened deadline slices under brownout,
// everything back at baseline on rung 0.
func TestKnobDerivation(t *testing.T) {
	cfg := testConfig()
	c := New(cfg)

	st := c.State()
	if st.Shedding || st.QueueDepth != 16 || st.DeadlineFracs != nil ||
		st.CoarsenEps != 0 || st.Windows != 0 {
		t.Fatalf("rung 0 state not at baseline: %+v", st)
	}

	want := []struct {
		rung    Rung
		queue   int
		coarsen bool
		windows bool
	}{
		{RungRealizeDown, 8, false, false},
		{RungCoarsen, 4, true, false},
		{RungWindowed, 2, true, true},
		{RungHeuristic, 2, true, true}, // MinQueue=2 floor
	}
	for _, w := range want {
		for c.State().Rung != w.rung {
			c.Step(sig(1.0, 0))
		}
		st := c.State()
		if !st.Shedding {
			t.Errorf("rung %v: shedding off", w.rung)
		}
		if st.QueueDepth != w.queue {
			t.Errorf("rung %v: queue depth %d, want %d", w.rung, st.QueueDepth, w.queue)
		}
		if (st.CoarsenEps > 0) != w.coarsen {
			t.Errorf("rung %v: coarsen eps %v, want set=%v", w.rung, st.CoarsenEps, w.coarsen)
		}
		if (st.Windows > 1) != w.windows {
			t.Errorf("rung %v: windows %v, want set=%v", w.rung, st.Windows, w.windows)
		}
		if st.DeadlineFracs == nil {
			t.Errorf("rung %v: deadline fracs not tightened", w.rung)
		}
	}

	// Recovery resets every knob to baseline.
	for c.State().Rung != RungFull {
		c.Step(sig(0, 0))
	}
	st = c.State()
	if st.Shedding || st.QueueDepth != 16 || st.DeadlineFracs != nil || st.CoarsenEps != 0 || st.Windows != 0 {
		t.Fatalf("post-recovery state not at baseline: %+v", st)
	}
}

// TestWorkerCutHysteresis: an open breaker halves the worker pool; the
// pool is only restored after ExitDwell calm epochs, so a flapping
// breaker cannot bounce the pool size every epoch.
func TestWorkerCutHysteresis(t *testing.T) {
	c := New(testConfig()) // Workers=4
	st, _ := c.Step(sig(0, 1))
	if st.Workers != 2 {
		t.Fatalf("workers with open breaker = %d, want 2", st.Workers)
	}
	// One calm epoch is not enough (ExitDwell=3).
	st, _ = c.Step(sig(0, 0))
	if st.Workers != 2 {
		t.Fatalf("workers after 1 calm epoch = %d, want still 2", st.Workers)
	}
	// Breaker reopens: the calm counter resets.
	c.Step(sig(0, 1))
	c.Step(sig(0, 0))
	st, _ = c.Step(sig(0, 0))
	if st.Workers != 2 {
		t.Fatalf("workers after interrupted calm = %d, want still 2", st.Workers)
	}
	st, _ = c.Step(sig(0, 0))
	if st.Workers != 4 {
		t.Fatalf("workers after full calm dwell = %d, want 4", st.Workers)
	}
}

// TestCacheSizing: sustained miss thrash grows the cache (bounded by
// MaxCacheFactor), and a quiet cache shrinks back to baseline.
func TestCacheSizing(t *testing.T) {
	c := New(testConfig()) // CacheSize=8, MaxCacheFactor=4
	thrash := Signals{Requests: 100, CacheMisses: 100, QueueCap: 1000, EpochS: 1}
	var st *State
	for i := 0; i < 10; i++ {
		st, _ = c.Step(thrash)
	}
	if st.CacheSize != 32 {
		t.Fatalf("cache after thrash = %d, want 32 (8×4 cap)", st.CacheSize)
	}
	quiet := Signals{Requests: 100, QueueCap: 1000, EpochS: 1}
	for i := 0; i < 10; i++ {
		st, _ = c.Step(quiet)
	}
	if st.CacheSize != 8 {
		t.Fatalf("cache after quiet = %d, want 8", st.CacheSize)
	}
}

// TestSolveEWMA: the shedding estimator tracks solve latency smoothly and
// ignores empty epochs.
func TestSolveEWMA(t *testing.T) {
	c := New(testConfig())
	st, _ := c.Step(Signals{AvgSolveS: 0.1, QueueCap: 100})
	if st.EstSolveS != 0.1 {
		t.Fatalf("first sample: est = %v, want 0.1", st.EstSolveS)
	}
	st, _ = c.Step(Signals{QueueCap: 100}) // no solves this epoch
	if st.EstSolveS != 0.1 {
		t.Fatalf("empty epoch moved the estimate: %v", st.EstSolveS)
	}
	st, _ = c.Step(Signals{AvgSolveS: 0.2, QueueCap: 100})
	want := 0.7*0.1 + 0.3*0.2
	if diff := st.EstSolveS - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("EWMA = %v, want %v", st.EstSolveS, want)
	}
}

// TestPressureTerms checks each term of the pressure scalar in isolation.
func TestPressureTerms(t *testing.T) {
	cfg := testConfig().withDefaults()
	cases := []struct {
		name string
		sig  Signals
		want float64
	}{
		{"idle", Signals{}, 0},
		{"rejections", Signals{Requests: 100, Rejected: 30}, 0.3},
		{"sheds count as rejections", Signals{Requests: 100, Rejected: 10, Shed: 20}, 0.3},
		{"queue occupancy", Signals{QueueLen: 70, QueueCap: 100}, 0.7},
		{"open breaker saturates", Signals{BreakersOpen: 1}, 1.0},
		{"max not sum", Signals{Requests: 100, Rejected: 30, QueueLen: 70, QueueCap: 100}, 0.7},
	}
	for _, tc := range cases {
		if got := cfg.Pressure(tc.sig); got != tc.want {
			t.Errorf("%s: pressure = %v, want %v", tc.name, got, tc.want)
		}
	}

	// The latency term needs an explicit target.
	cfg.TargetP95S = 0.1
	if got := cfg.Pressure(Signals{ReqP95S: 0.1}); got != 0 {
		t.Errorf("p95 at target: pressure = %v, want 0", got)
	}
	if got := cfg.Pressure(Signals{ReqP95S: 0.15}); got < 0.499 || got > 0.501 {
		t.Errorf("p95 at 1.5× target: pressure = %v, want ≈0.5", got)
	}
	if got := cfg.Pressure(Signals{ReqP95S: 1.0}); got != 1.0 {
		t.Errorf("p95 far past target: pressure = %v, want saturated 1.0", got)
	}
}

// TestDeterminism: identical signal sequences yield identical state
// sequences — the property the twin's regression replay rests on.
func TestDeterminism(t *testing.T) {
	seq := make([]Signals, 0, 300)
	for i := 0; i < 300; i++ {
		p := float64(i%17) / 16.0
		s := sig(p, 0)
		s.AvgSolveS = 0.001 * float64(i%5)
		s.CacheMisses = uint64(i % 13)
		seq = append(seq, s)
	}
	a, b := New(testConfig()), New(testConfig())
	for i, s := range seq {
		sa, ta := a.Step(s)
		sb, tb := b.Step(s)
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("epoch %d: states diverge: %+v vs %+v", i, sa, sb)
		}
		if len(ta) != len(tb) {
			t.Fatalf("epoch %d: transitions diverge", i)
		}
	}
}

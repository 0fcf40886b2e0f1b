// Package faultinject is a deterministic, seed-driven fault-injection
// registry for the resilience layer's chaos testing (DESIGN.md §10). Hooks
// are compiled into the solve pipeline's hot spots — the LP pivot loops, the
// schedule cache, the service worker path — and are disarmed by default: a
// single atomic pointer load decides "no faults", so production solves pay
// one predictable branch per checkpoint and nothing else.
//
// When armed (Configure), each hook site calls Fire(class), which draws a
// deterministic pseudo-random number from the configured seed and a global
// call counter (splitmix64). The same seed and the same call sequence
// reproduce the same fault pattern, which is what lets the chaos soak test
// assert exact recovery behavior instead of flaky probabilities.
package faultinject

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Class names one injectable fault.
type Class int32

// Fault classes, one per hook site.
const (
	// LPNaN corrupts the simplex's basic values with a NaN at a
	// pivot checkpoint, exercising the NaN detection and
	// refactorization-and-retry guards.
	LPNaN Class = iota
	// LPStall makes a pivot loop report iteration-limit exhaustion early,
	// exercising the fallback ladder's transient-failure path.
	LPStall
	// CacheError fails a schedule-cache operation, exercising the service's
	// cache-bypass path.
	CacheError
	// WorkerPanic panics inside a service worker, exercising panic recovery
	// and the pcschedd_panics_total accounting.
	WorkerPanic
	// SlowSolve delays a solve by the configured SlowDelay, exercising
	// per-rung deadline slices.
	SlowSolve

	numClasses
)

// String names the class as the chaos harness reports it.
func (c Class) String() string {
	switch c {
	case LPNaN:
		return "lp-nan"
	case LPStall:
		return "lp-stall"
	case CacheError:
		return "cache-error"
	case WorkerPanic:
		return "worker-panic"
	case SlowSolve:
		return "slow-solve"
	default:
		return fmt.Sprintf("Class(%d)", int32(c))
	}
}

// Classes lists every fault class in declaration order.
func Classes() []Class {
	return []Class{LPNaN, LPStall, CacheError, WorkerPanic, SlowSolve}
}

// config is one armed configuration; swapped atomically so hooks never lock.
type config struct {
	seed      uint64
	rates     [numClasses]float64
	slowDelay time.Duration
}

var (
	active  atomic.Pointer[config]
	calls   atomic.Uint64             // global draw counter: one per Fire
	fired   [numClasses]atomic.Uint64 // faults actually injected
	queried [numClasses]atomic.Uint64 // hook evaluations while armed
)

// Configure arms the registry: each class fires with its configured
// probability (absent classes never fire). Deterministic for a fixed seed
// and call sequence. Counters are reset.
func Configure(seed uint64, rates map[Class]float64) {
	cfg := &config{seed: seed, slowDelay: 10 * time.Millisecond}
	for c, r := range rates {
		if c >= 0 && c < numClasses {
			cfg.rates[c] = r
		}
	}
	resetCounters()
	active.Store(cfg)
}

// SetSlowDelay overrides the SlowSolve delay (default 10ms). Must be called
// after Configure; a disarmed registry ignores it.
func SetSlowDelay(d time.Duration) {
	if cfg := active.Load(); cfg != nil {
		next := *cfg
		next.slowDelay = d
		active.Store(&next)
	}
}

// Disable disarms every hook. Counters are preserved for post-mortem
// assertions until the next Configure.
func Disable() { active.Store(nil) }

// Armed reports whether any fault class is configured.
func Armed() bool { return active.Load() != nil }

// Fire reports whether the fault should be injected at this hook site. The
// disarmed fast path is one atomic pointer load.
func Fire(c Class) bool {
	cfg := active.Load()
	if cfg == nil || c < 0 || c >= numClasses {
		return false
	}
	rate := cfg.rates[c]
	if rate <= 0 {
		return false
	}
	queried[c].Add(1)
	n := calls.Add(1)
	if u01(splitmix64(cfg.seed+n)) >= rate {
		return false
	}
	fired[c].Add(1)
	return true
}

// Count reports how many times class c actually fired since Configure.
func Count(c Class) uint64 {
	if c < 0 || c >= numClasses {
		return 0
	}
	return fired[c].Load()
}

// Queries reports how many times class c's hook was evaluated while armed.
func Queries(c Class) uint64 {
	if c < 0 || c >= numClasses {
		return 0
	}
	return queried[c].Load()
}

// SlowDelay returns the configured SlowSolve delay (0 when disarmed).
// Hooks that Fire(SlowSolve) sleep this long.
func SlowDelay() time.Duration {
	if cfg := active.Load(); cfg != nil {
		return cfg.slowDelay
	}
	return 0
}

func resetCounters() {
	calls.Store(0)
	for i := range fired {
		fired[i].Store(0)
		queried[i].Store(0)
	}
}

// splitmix64 is the SplitMix64 finalizer: a high-quality 64-bit mix used as
// a counter-based PRNG (seed+counter in, uniform bits out).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// u01 maps 64 random bits onto [0,1).
func u01(x uint64) float64 { return float64(x>>11) / (1 << 53) }

package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(2)
	ctx := context.Background()
	put := func(key, val string) {
		t.Helper()
		if _, _, err := c.DoMaybe(ctx, key, func() (any, bool, error) { return val, true, nil }); err != nil {
			t.Fatal(err)
		}
	}
	put("a", "A")
	put("b", "B")
	put("c", "C") // evicts a
	if _, ok := c.Get("a"); ok {
		t.Fatal("oldest entry survived eviction")
	}
	for _, k := range []string{"b", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("entry %q missing", k)
		}
	}
	// Touching b makes c the eviction victim.
	c.Get("b")
	put("d", "D")
	if _, ok := c.Get("c"); ok {
		t.Fatal("recency order ignored: c should have been evicted")
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("recently used entry b was evicted")
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := newCache(8)
	var calls atomic.Int64
	gate := make(chan struct{})

	const waiters = 16
	var wg sync.WaitGroup
	miss := atomic.Int64{}
	coalesced := atomic.Int64{}
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			val, how, err := c.DoMaybe(context.Background(), "k", func() (any, bool, error) {
				calls.Add(1)
				<-gate // hold the flight open until all waiters joined
				return "V", true, nil
			})
			if err != nil || val.(string) != "V" {
				t.Errorf("DoMaybe = %v, %v", val, err)
			}
			switch how {
			case hitMiss:
				miss.Add(1)
			case hitCoalesced:
				coalesced.Add(1)
			}
		}()
	}
	// Wait until one leader is registered, then release it. Late arrivals
	// that land after completion become LRU hits — still not misses.
	for c.Len() == 0 && calls.Load() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	close(gate)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("backend ran %d times, want exactly 1", got)
	}
	if miss.Load() != 1 {
		t.Fatalf("got %d misses, want 1 (the leader)", miss.Load())
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := newCache(4)
	boom := errors.New("boom")
	calls := 0
	fn := func() (any, bool, error) {
		calls++
		if calls == 1 {
			return nil, false, boom
		}
		return "ok", true, nil
	}
	if _, _, err := c.DoMaybe(context.Background(), "k", fn); !errors.Is(err, boom) {
		t.Fatalf("first DoMaybe err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatal("error was cached")
	}
	val, how, err := c.DoMaybe(context.Background(), "k", fn)
	if err != nil || val.(string) != "ok" || how != hitMiss {
		t.Fatalf("retry = %v, %v, %v; want ok, miss, nil", val, how, err)
	}
}

func TestCacheWaiterCanceled(t *testing.T) {
	c := newCache(4)
	gate := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		c.DoMaybe(context.Background(), "k", func() (any, bool, error) {
			<-gate
			return "V", true, nil
		})
	}()
	// Wait for the leader's flight to register.
	waitUntil(t, time.Second, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.inflight) == 1
	})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.DoMaybe(ctx, "k", func() (any, bool, error) {
		t.Error("waiter must not become a second leader")
		return nil, false, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter got err = %v, want context.Canceled", err)
	}

	// The leader is unaffected and its result lands in the LRU.
	close(gate)
	<-leaderDone
	if v, ok := c.Get("k"); !ok || v.(string) != "V" {
		t.Fatalf("leader result missing after waiter cancellation: %v, %v", v, ok)
	}
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestCachePanicReleasesWaiters: a leader whose fn panics must fail its
// coalesced waiters (errSolvePanic) and remove the inflight entry, so the
// key is solvable again — and the panic must still reach the leader's
// caller.
func TestCachePanicReleasesWaiters(t *testing.T) {
	c := newCache(4)
	gate := make(chan struct{})

	waiterErr := make(chan error, 1)
	leaderPanicked := make(chan any, 1)
	go func() {
		defer func() { leaderPanicked <- recover() }()
		c.DoMaybe(context.Background(), "k", func() (any, bool, error) {
			<-gate
			panic("leader bug")
		})
	}()
	waitUntil(t, time.Second, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.inflight) == 1
	})
	go func() {
		_, _, err := c.DoMaybe(context.Background(), "k", func() (any, bool, error) {
			t.Error("waiter must not become a second leader")
			return nil, false, nil
		})
		waiterErr <- err
	}()
	// Give the waiter time to join the flight, then spring the panic.
	time.Sleep(2 * time.Millisecond)
	close(gate)

	if err := <-waiterErr; !errors.Is(err, errSolvePanic) {
		t.Fatalf("waiter err = %v, want errSolvePanic", err)
	}
	if p := <-leaderPanicked; p == nil {
		t.Fatal("panic was swallowed instead of resuming on the leader")
	}
	c.mu.Lock()
	stuck := len(c.inflight)
	c.mu.Unlock()
	if stuck != 0 {
		t.Fatalf("%d inflight entries leaked after leader panic", stuck)
	}
	// The key works again.
	val, how, err := c.DoMaybe(context.Background(), "k", func() (any, bool, error) { return "ok", true, nil })
	if err != nil || val.(string) != "ok" || how != hitMiss {
		t.Fatalf("post-panic DoMaybe = %v, %v, %v", val, how, err)
	}
}

// TestCacheDoMaybeUncacheable: a non-cacheable value is returned to its
// caller (and any coalesced waiter) but never enters the LRU.
func TestCacheDoMaybeUncacheable(t *testing.T) {
	c := newCache(4)
	calls := 0
	fn := func() (any, bool, error) {
		calls++
		return "degraded", false, nil
	}
	for i := 0; i < 2; i++ {
		val, how, err := c.DoMaybe(context.Background(), "k", fn)
		if err != nil || val.(string) != "degraded" || how != hitMiss {
			t.Fatalf("DoMaybe %d = %v, %v, %v", i, val, how, err)
		}
	}
	if calls != 2 {
		t.Fatalf("fn ran %d times, want 2 (no caching)", calls)
	}
	if c.Len() != 0 {
		t.Fatal("uncacheable value entered the LRU")
	}
}

package rma

import (
	"sync"
	"testing"
	"time"

	"rma/internal/core"
	"rma/internal/rebal"
	"rma/internal/shard"
	"rma/internal/workload"
)

// Lifecycle tests for the background rebalancer on the real serving
// stack (rma.Sharded over internal/shard + internal/rebal). The
// deterministic fairness/wakeup unit tests live in internal/rebal;
// these assert the end-to-end contract under -race: Close-while-pending
// drains fully, double-Close is safe, and a flooded shard cannot starve
// another shard's maintenance.

// newAsyncSharded builds a small-segment sharded map whose boundaries
// cover the torture key space, with the background rebalancer on.
func newAsyncSharded(t *testing.T, shards, workers int) *Sharded {
	t.Helper()
	sample := make([]int64, 256)
	for i := range sample {
		sample[i] = int64(i) * tortureKeySpace / int64(len(sample))
	}
	s, err := NewShardedFromSample(shards, sample,
		WithSegmentCapacity(16), WithPageCapacity(64),
		WithBackgroundRebalancing(workers))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestShardedRebalancerCloseWhilePendingDrains hammers writers and
// closes immediately, with no quiescence: Close must execute every
// deferred window before returning, leaving a valid, fully rebalanced,
// content-complete map.
func TestShardedRebalancerCloseWhilePendingDrains(t *testing.T) {
	s := newAsyncSharded(t, 5, 2)
	const writers, perW = 4, 8_000
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := workload.NewRNG(uint64(31 + g))
			for i := 0; i < perW; i++ {
				k := int64(rng.Uint64n(tortureKeySpace))
				if err := s.Insert(k, diffVal(k)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Close right on the writers' heels — the backlog is whatever the
	// pool has not caught up with yet.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := s.PendingWindows(); n != 0 {
		t.Fatalf("%d windows still pending after Close", n)
	}
	if got := s.Size(); got != writers*perW {
		t.Fatalf("size %d after close, want %d", got, writers*perW)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.DeferredWindows == 0 {
		t.Error("no window was ever deferred; the async path never engaged")
	}
}

// TestShardedRebalancerDoubleClose: Close is idempotent (sequentially
// and concurrently), and the map stays fully usable afterwards with
// synchronous rebalancing.
func TestShardedRebalancerDoubleClose(t *testing.T) {
	s := newAsyncSharded(t, 3, 2)
	rng := workload.NewRNG(7)
	for i := 0; i < 10_000; i++ {
		k := int64(rng.Uint64n(tortureKeySpace))
		if err := s.Insert(k, diffVal(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Close(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	// Post-Close writes rebalance synchronously: the backlog never grows.
	for i := 0; i < 10_000; i++ {
		k := int64(rng.Uint64n(tortureKeySpace))
		if err := s.Insert(k, diffVal(k)); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.PendingWindows(); n != 0 {
		t.Fatalf("%d windows pending after post-Close writes; deferral was not disabled", n)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Size() != 20_000 {
		t.Fatalf("size %d, want 20000", s.Size())
	}

	// A never-async map's Close is a free no-op.
	plain, err := NewSharded(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedRebalancerFloodFairness drives the real shard.Map + pool:
// shard 1's pre-filled backlog must drain while a writer floods shard 0
// with fresh deferrals the whole time — the round-robin workers may
// never park on the flooded shard.
func TestShardedRebalancerFloodFairness(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.SegmentSlots = 16
	cfg.PageSlots = 64
	// Two shards: keys < 1<<20 on shard 0, the rest on shard 1.
	m, err := shard.New(cfg, []int64{1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	pool := rebal.NewPool(m, 1) // one worker: starvation would be visible
	m.EnableDeferredRebalancing(pool.Notify)

	// Pre-fill shard 1's backlog before any worker runs.
	rng := workload.NewRNG(99)
	for i := 0; m.PendingShard(1) < 16 && i < 200_000; i++ {
		k := int64(1<<20) + int64(rng.Uint64n(4096))
		if err := m.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if m.PendingShard(1) == 0 {
		t.Fatal("could not provoke a deferred backlog on shard 1; retune the workload")
	}

	pool.Start()
	defer pool.Close()

	stop := make(chan struct{})
	var flood sync.WaitGroup
	flood.Add(1)
	go func() {
		defer flood.Done()
		rng := workload.NewRNG(5)
		for {
			select {
			case <-stop:
				return
			default:
			}
			k := int64(rng.Uint64n(4096))
			if err := m.Insert(k, k); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	deadline := time.Now().Add(20 * time.Second)
	for m.PendingShard(1) != 0 {
		if time.Now().After(deadline) {
			close(stop)
			flood.Wait()
			t.Fatalf("shard 1 backlog (%d) starved under the shard-0 flood", m.PendingShard(1))
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	flood.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedRebalancerSequentialInsert pins the two bugs the async
// split originally shipped with, both provoked by sequential ascending
// keys (the adaptive detector's hammering pattern) under concurrent
// writers:
//
//  1. the deferred local spread used adaptive targets, which can leave
//     the insert's own segment full — the insert's retry loop then
//     re-picked the same window forever (a livelock holding the shard
//     lock);
//  2. maintenance tried to repair every tau violation, fighting the
//     adaptive policy's deliberate density skew with endless near-root
//     rebalances.
//
// The run must finish quickly (the livelock burned minutes); the
// generous bound only trips if one of them regresses.
func TestShardedRebalancerSequentialInsert(t *testing.T) {
	s, err := NewSharded(8, WithBackgroundRebalancing(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		const writers, perW = 4, 25_000
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := int64(0); i < perW; i++ {
					if err := s.Insert(i*writers+int64(w), i); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("sequential insert workload livelocked (deferred local spread must guarantee insert admission)")
	}
	if t.Failed() {
		t.FailNow()
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Size() != 100_000 {
		t.Fatalf("size %d, want 100000", s.Size())
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedRebalancerLockFreeReaders runs point readers through the
// seqlock path while writers keep the background rebalancer busy: every
// hit must carry the key's one true value (writers only ever store
// diffVal), the lock-free counter must progress, and with page-swapping
// rebalances active the epoch gate must actually reclaim retired pages.
func TestShardedRebalancerLockFreeReaders(t *testing.T) {
	sample := make([]int64, 256)
	for i := range sample {
		sample[i] = int64(i) * tortureKeySpace / int64(len(sample))
	}
	s, err := NewShardedFromSample(5, sample,
		WithSegmentCapacity(16), WithPageCapacity(64),
		WithBackgroundRebalancing(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const readerG, perWriter = 4, 30_000
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for g := 0; g < readerG; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			rng := workload.NewRNG(uint64(4000 + g))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := int64(rng.Uint64n(tortureKeySpace))
				if v, ok := s.Find(k); ok && v != diffVal(k) {
					t.Errorf("reader %d: Find(%d) = %d, want %d", g, k, v, diffVal(k))
					return
				}
				if fk, fv, ok := s.Floor(k); ok && (fk > k || fv != diffVal(fk)) {
					t.Errorf("reader %d: Floor(%d) = (%d,%d)", g, k, fk, fv)
					return
				}
				if ck, cv, ok := s.Ceiling(k); ok && (ck < k || cv != diffVal(ck)) {
					t.Errorf("reader %d: Ceiling(%d) = (%d,%d)", g, k, ck, cv)
					return
				}
			}
		}(g)
	}
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := workload.NewRNG(uint64(600 + w))
			for i := 0; i < perWriter; i++ {
				k := int64(rng.Uint64n(tortureKeySpace))
				if rng.Uint64n(100) < 20 {
					if _, err := s.Delete(k); err != nil {
						t.Error(err)
						return
					}
				} else if err := s.Insert(k, diffVal(k)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		t.FailNow()
	}

	st := s.Stats()
	if st.LockFreeReads == 0 {
		t.Error("no read ever completed through the seqlock path")
	}
	if st.ReadFallbacks > 0 && st.ReadRetries == 0 {
		t.Errorf("%d fallbacks but zero retries recorded", st.ReadFallbacks)
	}
	if st.PageSwaps > 0 && st.EpochAdvances == 0 {
		t.Errorf("%d page swaps retired pages but the epoch gate never advanced", st.PageSwaps)
	}
	t.Logf("lock-free: %d reads, %d retries, %d fallbacks; %d page swaps, %d epoch advances",
		st.LockFreeReads, st.ReadRetries, st.ReadFallbacks, st.PageSwaps, st.EpochAdvances)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedFlushDrainsBacklog: Flush empties the deferral queues
// without stopping the pool, and the map keeps serving.
func TestShardedFlushDrainsBacklog(t *testing.T) {
	s := newAsyncSharded(t, 4, 1)
	defer s.Close()
	rng := workload.NewRNG(3)
	for i := 0; i < 20_000; i++ {
		k := int64(rng.Uint64n(tortureKeySpace))
		if err := s.Insert(k, diffVal(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := s.PendingWindows(); n != 0 {
		t.Fatalf("%d windows pending right after Flush", n)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Still serving: inserts after a flush defer again.
	for i := 0; i < 5_000; i++ {
		k := int64(rng.Uint64n(tortureKeySpace))
		if err := s.Insert(k, diffVal(k)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Size() != 25_000 {
		t.Fatalf("size %d, want 25000", s.Size())
	}
}

package rma

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCloseWhileServing pins the Close-vs-in-flight contract the
// serving layer (cmd/rmaserve) relies on: Sharded.Close racing live
// writers, SnapshotScan readers and optimistic point readers must
// neither panic nor corrupt — in-flight operations either complete or
// error cleanly, and the racing goroutines all terminate. Exercised on
// every serving configuration: plain, background rebalancing, and the
// same with durability (Close tears down the
// checkpoint file handles while reads are still being served from the
// heap-backed pages).
//
// Close's pieces are individually drain-safe — pool.Close drains the
// maintenance queue under shard locks, DisableDeferredRebalancing
// flushes per shard, CloseDurability only closes file handles — but
// nothing pinned their composition against concurrent traffic; this
// test does, under -race in CI's race lane.
func TestCloseWhileServing(t *testing.T) {
	configs := []struct {
		name string
		opts []Option
	}{
		{"plain", nil},
		{"async", []Option{WithBackgroundRebalancing(2)}},
		{"async-durable", nil}, // durability dir added per run
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			opts := cfg.opts
			if cfg.name == "async-durable" {
				opts = []Option{WithBackgroundRebalancing(2), WithDurability(t.TempDir())}
			}
			s, err := NewSharded(4, opts...)
			if err != nil {
				t.Fatal(err)
			}
			const n = 1 << 14
			for i := 0; i < n; i++ {
				if err := s.Insert(int64(i*2), int64(i)); err != nil {
					t.Fatal(err)
				}
			}

			var (
				stop    atomic.Bool
				wg      sync.WaitGroup
				started sync.WaitGroup
			)
			spawn := func(f func()) {
				wg.Add(1)
				started.Add(1)
				go func() {
					defer wg.Done()
					started.Done()
					f()
				}()
			}
			// Writers: inserts and deletes racing the teardown. Errors
			// are legal once Close has begun; panics are not.
			for w := 0; w < 2; w++ {
				base := int64(w+1) * (n * 4)
				spawn(func() {
					for i := int64(0); !stop.Load(); i++ {
						_ = s.Insert(base+i, i)
						if i%3 == 0 {
							_, _ = s.Delete(base + i/2)
						}
					}
				})
			}
			// Snapshot scanners: full-range traversals in flight while
			// Close drains; the yield must keep seeing sane pairs.
			for r := 0; r < 2; r++ {
				spawn(func() {
					for !stop.Load() {
						prev := int64(-1)
						s.SnapshotScan(0, n*2, func(k, v int64) bool {
							if k < prev {
								t.Errorf("scan out of order: %d after %d", k, prev)
								return false
							}
							prev = k
							return !stop.Load()
						})
					}
				})
			}
			// Optimistic point readers (seqlock path).
			for r := 0; r < 2; r++ {
				seed := int64(r)
				spawn(func() {
					for i := seed; !stop.Load(); i += 7 {
						s.Find(i % (n * 2))
					}
				})
			}

			started.Wait()
			time.Sleep(20 * time.Millisecond) // let traffic reach steady state
			if err := s.Close(); err != nil {
				t.Errorf("Close under traffic: %v", err)
			}
			stop.Store(true)
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("racing goroutines did not terminate after Close")
			}
			// The structure must still be internally consistent: Close
			// stops services, it does not tear down the data.
			if err := s.Validate(); err != nil {
				t.Errorf("Validate after Close: %v", err)
			}
			// Close is idempotent even after the storm.
			if err := s.Close(); err != nil {
				t.Errorf("second Close: %v", err)
			}
		})
	}
}

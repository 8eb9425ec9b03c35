// Package rebal is the asynchronous maintenance layer of the sharded
// serving stack: a pool of worker goroutines that executes the window
// rebalances, adaptive spreads and resizes the engine's deferred-mode
// writers queued instead of running synchronously (see
// internal/core/pending.go and CONCURRENCY.md).
//
// The pool never touches engine state directly. It drives a Source —
// implemented by internal/shard.Map — whose MaintainShard method
// acquires the shard's lock for exactly one bounded slice of work (one
// rebalance or resize) and releases it, so maintenance interleaves with
// foreground traffic at fine granularity instead of stalling a shard
// for a whole backlog.
//
// Fairness: workers share one atomic round-robin cursor over the shard
// indices. A worker does one slice on the cursor's shard and moves on,
// so a flood of deferred windows on one shard cannot starve another
// shard's maintenance — every K-th slice visits any given shard
// regardless of backlog skew. Workers park only after a full clean
// sweep (K consecutive empty slices) and are woken by Notify, which
// writers call after leaving deferred work behind.
package rebal

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Scheduler is the optional periodic surface of a Source: when the
// Source also implements it, the pool runs a dedicated goroutine that
// calls SchedulerTick at a fixed cadence for as long as the pool is
// open. internal/shard.Map uses it for the automatic checkpoint
// scheduler — threshold checks that must keep firing even while the
// workers never park (sustained write load is exactly when WAL-bytes
// and dirty-page thresholds matter most).
type Scheduler interface {
	SchedulerTick()
}

// Source is the maintenance surface the pool drives. internal/shard.Map
// implements it; tests substitute fakes.
type Source interface {
	// NumShards returns the number of independently lockable shards.
	NumShards() int
	// MaintainShard performs at most one bounded slice of deferred work
	// on shard i under its lock, reporting whether an entry was
	// processed. Errors are storage-allocation failures; the shard
	// stays consistent and the entry is consumed.
	MaintainShard(i int) (bool, error)
	// Quiesce reclaims whatever the source retired behind its
	// epoch-protected readers (shard.Map drains its retired-page limbo).
	// Workers call it after a clean sweep, before parking, so
	// reclamation keeps pace even when no writer shows up to advance
	// the epoch.
	Quiesce()
}

// Pool runs background maintenance workers over a Source. Create with
// NewPool, then Start; Close drains every queued entry and stops the
// workers. All methods are safe for concurrent use; Close is
// idempotent.
type Pool struct {
	src     Source
	workers int

	cursor atomic.Uint64 // shared round-robin shard cursor
	wake   chan struct{} // coalesced writer wakeups, cap = workers
	done   chan struct{}
	wg     sync.WaitGroup

	// schedPeriod is the SchedulerTick cadence (SetSchedulerPeriod
	// before Start; defaults to 250ms).
	schedPeriod time.Duration

	started   atomic.Bool
	closeOnce sync.Once
	closeErr  error

	errMu   sync.Mutex
	lastErr error
}

// NewPool builds a pool of the given number of workers (minimum 1) over
// src. The pool is inert until Start.
func NewPool(src Source, workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{
		src:         src,
		workers:     workers,
		wake:        make(chan struct{}, workers),
		done:        make(chan struct{}),
		schedPeriod: 250 * time.Millisecond,
	}
}

// SetSchedulerPeriod overrides the SchedulerTick cadence. Call before
// Start (tests tighten it to force scheduler activity quickly).
func (p *Pool) SetSchedulerPeriod(d time.Duration) {
	if d > 0 {
		p.schedPeriod = d
	}
}

// Start launches the worker goroutines — plus, when the Source is also
// a Scheduler, the periodic ticker goroutine that drives it. Starting
// twice panics (the lifecycle is New → Start → Close).
func (p *Pool) Start() {
	if !p.started.CompareAndSwap(false, true) {
		panic("rebal: Pool started twice")
	}
	for i := 0; i < p.workers; i++ {
		p.wg.Add(1)
		go p.run()
	}
	if sched, ok := p.src.(Scheduler); ok {
		p.wg.Add(1)
		go p.tick(sched)
	}
}

// tick drives the Source's periodic scheduler until Close.
func (p *Pool) tick(sched Scheduler) {
	defer p.wg.Done()
	t := time.NewTicker(p.schedPeriod)
	defer t.Stop()
	for {
		select {
		case <-p.done:
			return
		case <-t.C:
			sched.SchedulerTick()
		}
	}
}

// Notify wakes a parked worker. Writers call it (outside any shard
// lock) after an operation left deferred windows pending. Non-blocking
// and coalescing: a burst of notifies costs one channel send.
func (p *Pool) Notify() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// Close stops the pool: workers exit, then every shard's remaining
// backlog is drained synchronously, so a closed pool leaves no deferred
// work behind. Idempotent — extra Closes return the first result.
func (p *Pool) Close() error {
	p.closeOnce.Do(func() {
		close(p.done)
		if p.started.Load() {
			p.wg.Wait()
		}
		p.closeErr = p.drainAll()
		if p.closeErr == nil {
			p.errMu.Lock()
			p.closeErr = p.lastErr
			p.errMu.Unlock()
		}
	})
	return p.closeErr
}

// drainAll empties every shard's queue, shard by shard.
func (p *Pool) drainAll() error {
	for i := 0; i < p.src.NumShards(); i++ {
		for {
			did, err := p.src.MaintainShard(i)
			if err != nil {
				return fmt.Errorf("rebal: draining shard %d: %w", i, err)
			}
			if !did {
				break
			}
		}
	}
	return nil
}

// run is one worker: round-robin slices until a clean sweep, then park.
func (p *Pool) run() {
	defer p.wg.Done()
	k := p.src.NumShards()
	idle := 0
	for {
		select {
		case <-p.done:
			return
		default:
		}
		i := int(p.cursor.Add(1)-1) % k
		did, err := p.src.MaintainShard(i)
		if err != nil {
			// Storage-allocation failure (failure injection in tests):
			// the entry is consumed and the shard stays consistent, so
			// record it and keep maintaining.
			p.errMu.Lock()
			p.lastErr = err
			p.errMu.Unlock()
		}
		if did {
			idle = 0
			continue
		}
		if idle++; idle < k {
			continue // finish sweeping the other shards before parking
		}
		// Clean sweep: nothing left to maintain, so this is a natural
		// quiesce point.
		p.src.Quiesce()
		select {
		case <-p.wake:
			idle = 0
		case <-p.done:
			return
		}
	}
}

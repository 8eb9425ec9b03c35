package shard

import (
	"runtime"
	"sync"
	"time"

	"rma/internal/core"
)

// Cross-shard snapshot reads.
//
// A multi-shard traversal holds one shard lock at a time, so by itself
// it only guarantees per-shard atomicity: writers can slip between
// shard visits. Every reader-visible write bumps the
// owning shard's seqlock version (shard.go), which makes consistency
// checkable: record each shard's version at its visit, and before
// reading any later shard revalidate that every previously visited
// shard still carries its recorded version. If the validation holds
// through the final shard, there is a witness instant — inside the last
// shard's critical section, at the moment of its validation — at which
// every shard simultaneously held exactly the state the traversal
// observed, because versions only ever move forward and an unchanged
// version means an unchanged shard. The whole mechanism costs one
// uint64 per shard and a handful of atomic loads: no global lock, no
// copy, no quiescing of writers.
//
// Traversals that stream results to a callback cannot restart once the
// cut breaks AND elements have been consumed (the caller already saw
// earlier shards); but a break detected before the first yield is
// invisible to the caller, so the traversal restarts from the first
// shard under a fresh vector, backing off exponentially between
// attempts to let the write burst drain. Only a final degradation — a
// break after elements streamed, or retries exhausted — counts a
// SnapshotBreak; SnapshotScanRange surfaces that verdict to the
// caller. Rank consumes nothing externally, so it always retries (with
// the same backoff) and only degrades after a bounded number of broken
// cuts.

// snapVec is a pooled version vector, recycled across traversals so
// steady-state snapshot reads allocate nothing.
type snapVec struct{ v []uint64 }

var vecPool = sync.Pool{New: func() any { return new(snapVec) }}

func getVec(n int) *snapVec {
	sv := vecPool.Get().(*snapVec)
	if cap(sv.v) < n {
		sv.v = make([]uint64, n)
	}
	sv.v = sv.v[:n]
	return sv
}

// versionsMatch reports whether the len(vec) shards first, first+step,
// ... still carry the versions recorded in vec. Control-word reads only
// — safe without any shard lock.
//
//rma:noalloc
//rma:seqlock
func (m *Map) versionsMatch(vec []uint64, first, step int) bool {
	for i := range vec {
		if m.shards[first+i*step].ver.Load() != vec[i] {
			return false
		}
	}
	return true
}

// walk is the one cross-shard traversal: it visits the shards owning
// [lo, hi] in ascending order (descending: right to left), each under
// its own lock with its deferred backlog flushed, and reports whether
// the whole traversal observed one consistent cut. visit streams one
// shard's portion to the consumer and reports whether it yielded
// anything and whether the consumer stopped the traversal.
//
// Before each shard the versions recorded for the shards already
// visited are revalidated. A broken cut restarts the traversal under a
// fresh vector while nothing has been yielded and attempts remain;
// otherwise the traversal completes with per-shard-atomic semantics,
// counts one SnapshotBreak and returns false.
func (m *Map) walk(lo, hi int64, descending bool, visit func(a *core.Array) (yielded, stopped bool)) bool {
	if lo > hi {
		return true
	}
	jLo, jHi := m.shardOf(lo), m.shardOf(hi)
	first, step := jLo, 1
	if descending {
		first, step = jHi, -1
	}
	sv := getVec(jHi - jLo + 1)
	defer vecPool.Put(sv)
	vec := sv.v
	consistent, yielded := true, false
	for attempt, i := 0, 0; i < len(vec); i++ {
		s := &m.shards[first+i*step]
		s.mu.Lock()
		flushDeferred(s)
		if consistent && !m.versionsMatch(vec[:i], first, step) {
			if !yielded && attempt+1 < snapshotAttempts {
				// Nothing streamed yet: the break is invisible to the
				// caller — restart under a fresh vector instead of
				// settling for a torn verdict.
				s.mu.Unlock()
				attempt++
				snapshotBackoff(attempt)
				i = -1
				continue
			}
			consistent = false
			m.snapshotBreaks.Add(1)
		}
		vec[i] = s.ver.Load()
		y, stopped := visit(s.a)
		s.mu.Unlock()
		yielded = yielded || y
		if stopped {
			break
		}
	}
	return consistent
}

// SnapshotScanRange visits every element with lo <= key <= hi in key
// order and reports whether the whole traversal observed one consistent
// cut: true means there was an instant at which every visited shard
// simultaneously held exactly the state the callback saw. On a broken
// cut the scan does not restart (the callback already consumed earlier
// shards); it completes with per-shard-atomic semantics, counts a
// SnapshotBreak, and returns false.
//
// Early termination by the callback returns the consistency status of
// the prefix actually visited; a single-shard traversal is trivially
// consistent.
func (m *Map) SnapshotScanRange(lo, hi int64, visit func(key, val int64) bool) bool {
	return m.walk(lo, hi, false, func(a *core.Array) (yielded, stopped bool) {
		a.ScanRange(lo, hi, func(k, v int64) bool {
			yielded = true
			stopped = !visit(k, v)
			return !stopped
		})
		return yielded, stopped
	})
}

// snapshotAttempts bounds how many broken cuts a snapshot traversal
// tolerates — restarting between them — before settling for the
// per-shard-atomic answer.
const snapshotAttempts = 4

// snapshotBackoff parts a retrying snapshot traversal from the write
// burst that broke its cut: the first retry just yields the processor,
// later ones sleep exponentially (2us, 4us, ...) — long enough for a
// rebalance or batch to drain, short enough to stay invisible next to
// the traversal itself.
func snapshotBackoff(attempt int) {
	if attempt <= 1 {
		runtime.Gosched()
		return
	}
	time.Sleep(time.Duration(1<<uint(attempt)) * time.Microsecond)
}

// Rank returns the number of stored elements with key < x: the sizes of
// the shards left of the owning shard plus the in-shard rank, each read
// under its shard's lock. The sum is retried under a fresh version
// vector (like walk, minus the flush — sizes are exact on a
// locally-spread shard) until one consistent cut covers every
// contributing shard; when every attempt loses the race it settles for
// the per-shard-atomic sum and counts a SnapshotBreak.
func (m *Map) Rank(x int64) int {
	j := m.shardOf(x)
	sv := getVec(j + 1)
	defer vecPool.Put(sv)
	vec := sv.v
	r, consistent := 0, true
	for attempt, i := 0, 0; i <= j; i++ {
		s := &m.shards[i]
		s.mu.Lock()
		if consistent && !m.versionsMatch(vec[:i], 0, 1) {
			if attempt+1 < snapshotAttempts {
				s.mu.Unlock()
				attempt++
				snapshotBackoff(attempt)
				r, i = 0, -1
				continue
			}
			consistent = false
			m.snapshotBreaks.Add(1)
		}
		vec[i] = s.ver.Load()
		if i < j {
			r += s.a.Size()
		} else {
			r += s.a.Rank(x)
		}
		s.mu.Unlock()
	}
	return r
}

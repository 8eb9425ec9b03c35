package shard

import (
	"iter"

	"rma/internal/core"
)

// Merged iteration: shards own disjoint, contiguous key ranges in
// ascending shard order, so a globally ordered traversal is the
// concatenation of per-shard traversals — no heap merge, O(1) walker
// state per shard, one shard lock held at a time. The yielded sequence
// is always globally sorted; under concurrent writers each shard's
// portion is a consistent snapshot, and the whole is one consistent cut
// unless a writer slipped between shard visits after elements had
// already streamed (see walk in snapshot.go, which every traversal here
// goes through).
//
// The yield callback runs with the current shard's lock held: it must
// not call back into the same Map.

// IterAscend returns a lazy ascending iterator over elements with
// lo <= key <= hi, merged across shards. The cut's verdict is counted
// in SnapshotBreaks but not surfaced through the iter.Seq2 shape — use
// SnapshotScanRange when the caller needs it.
func (m *Map) IterAscend(lo, hi int64) iter.Seq2[int64, int64] {
	return func(yield func(int64, int64) bool) {
		m.walk(lo, hi, false, func(a *core.Array) (yielded, stopped bool) {
			for k, v := range a.IterAscend(lo, hi) {
				if !yield(k, v) {
					return true, true
				}
				yielded = true
			}
			return yielded, false
		})
	}
}

// IterDescend returns a lazy descending iterator over elements with
// lo <= key <= hi, walking shards right to left.
func (m *Map) IterDescend(lo, hi int64) iter.Seq2[int64, int64] {
	return func(yield func(int64, int64) bool) {
		m.walk(lo, hi, true, func(a *core.Array) (yielded, stopped bool) {
			for k, v := range a.IterDescend(lo, hi) {
				if !yield(k, v) {
					return true, true
				}
				yielded = true
			}
			return yielded, false
		})
	}
}

// flushDeferred drains the shard's deferred-rebalance backlog before a
// snapshot read; it must run under the shard's lock. Iterators and
// scans call it so every shard they observe is fully rebalanced
// (flush-on-snapshot — see CONCURRENCY.md). A flush error can only be
// a storage-allocation failure, which leaves the shard consistent with
// the work still queued, so reads proceed regardless; the Close paths
// surface it. The seqlock write bracket runs only when there is work
// to flush — an idle flush must not bump the version word, or every
// scan would break every concurrent snapshot for nothing.
func flushDeferred(s *cell) error {
	if s.a.PendingCount() == 0 {
		return nil
	}
	s.beginWrite()
	err := s.a.FlushPending()
	s.endWrite()
	s.advanceEpoch()
	return err
}

// ScanRange visits every element with lo <= key <= hi in key order via
// the per-shard callback scans (dense-run tight loops): SnapshotScanRange
// with the verdict dropped.
func (m *Map) ScanRange(lo, hi int64, visit func(key, val int64) bool) {
	m.SnapshotScanRange(lo, hi, visit)
}

// Scan visits every element in key order.
func (m *Map) Scan(visit func(key, val int64) bool) { m.ScanRange(minKey, maxKey, visit) }

// Sum aggregates elements with lo <= key <= hi across shards.
func (m *Map) Sum(lo, hi int64) (count int, sum int64) {
	if lo > hi {
		return 0, 0
	}
	jHi := m.shardOf(hi)
	for j := m.shardOf(lo); j <= jHi; j++ {
		s := &m.shards[j]
		s.mu.Lock()
		flushDeferred(s)
		c, sm := s.a.Sum(lo, hi)
		s.mu.Unlock()
		count += c
		sum += sm
	}
	return count, sum
}

// SumAll aggregates every element.
func (m *Map) SumAll() (count int, sum int64) { return m.Sum(minKey, maxKey) }

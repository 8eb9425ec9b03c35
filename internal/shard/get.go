package shard

import (
	"sync"

	"rma/internal/core"
)

// Batched reads: the lookup mirror of ApplyBatch. A batch of point
// probes is grouped per shard in one stable counting-sort pass, then
// each shard's group is resolved in one optimistic read section — or,
// once its retries are spent, under one lock through the engine's
// FindBatch, which sorts the group and amortizes index descents across
// adjacent probes — before the grouped results are scattered back into
// the caller's order. Like Find, a batched read
// does not flush deferred rebalance work: point probes are exact on a
// locally-spread shard (only ordered snapshots need the flush; see
// CONCURRENCY.md).

// getScratch holds one GetBatch call's grouping buffers, pooled so
// steady-state batched reads allocate nothing (concurrent callers each
// take their own scratch from the pool).
type getScratch struct {
	counts, next []int
	homes        []int32
	gkeys        []int64
	gout         []core.Lookup
}

var getPool = sync.Pool{New: func() any { return new(getScratch) }}

func (g *getScratch) size(nKeys, k int) {
	if cap(g.counts) < k+1 {
		g.counts = make([]int, k+1)
		g.next = make([]int, k)
	}
	g.counts = g.counts[:k+1]
	g.next = g.next[:k]
	clear(g.counts)
	if cap(g.homes) < nKeys {
		g.homes = make([]int32, nKeys)
		g.gkeys = make([]int64, nKeys)
		g.gout = make([]core.Lookup, nKeys)
	}
	g.homes = g.homes[:nKeys]
	g.gkeys = g.gkeys[:nKeys]
	g.gout = g.gout[:nKeys]
}

// GetBatch resolves a batch of point lookups: out is grown to
// len(keys) (reused when its capacity suffices) and out[i] answers
// keys[i]. Each shard is visited exactly once; like every multi-shard
// operation the batch is consistent per shard, not across shards —
// concurrent writers can interleave between shard visits.
func (m *Map) GetBatch(keys []int64, out []core.Lookup) []core.Lookup {
	if cap(out) < len(keys) {
		out = make([]core.Lookup, len(keys))
	}
	out = out[:len(keys)]
	if len(keys) == 0 {
		return out
	}
	k := len(m.shards)
	g := getPool.Get().(*getScratch)
	defer getPool.Put(g)
	g.size(len(keys), k)

	// Stable counting-sort of the probes by shard.
	for i, key := range keys {
		h := m.shardOf(key)
		g.homes[i] = int32(h)
		g.counts[h+1]++
	}
	for i := 1; i <= k; i++ {
		g.counts[i] += g.counts[i-1]
	}
	copy(g.next, g.counts[:k])
	for i, key := range keys {
		h := g.homes[i]
		g.gkeys[g.next[h]] = key
		g.next[h]++
	}

	// Each non-empty shard group first attempts the seqlock path
	// (all-or-nothing per shard, preserving the per-shard atomicity
	// contract); a group that exhausts its retries takes one lock and
	// one engine-level batch.
	for j := 0; j < k; j++ {
		lo, hi := g.counts[j], g.counts[j+1]
		if lo == hi || m.seqFindGroup(j, g.gkeys[lo:hi], g.gout[lo:hi]) {
			continue
		}
		s := &m.shards[j]
		s.mu.Lock()
		res := s.a.FindBatch(g.gkeys[lo:hi], g.gout[lo:hi])
		s.mu.Unlock()
		// FindBatch reuses the passed slice when its capacity suffices
		// (it always does here); copy back defensively otherwise.
		if &res[0] != &g.gout[lo] {
			copy(g.gout[lo:hi], res)
		}
	}

	// Scatter the grouped results back into batch order.
	copy(g.next, g.counts[:k])
	for i := range keys {
		h := g.homes[i]
		out[i] = g.gout[g.next[h]]
		g.next[h]++
	}
	return out
}

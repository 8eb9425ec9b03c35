package shard

import (
	"sync"

	"rma/internal/core"
	"rma/internal/wal"
)

// Batched writes: the serving layer's ingestion path. A batch is
// grouped per shard in one stable counting-sort pass, then each shard
// is locked exactly once and its group applied in arrival order —
// amortizing lock traffic over the whole group — with maximal runs of
// consecutive insertions riding the engine's bottom-up bulk-load path,
// which rebalances each touched window at most once.

// Op is one operation of a batch — the log's own record type, so a
// shard group goes to wal.Append as it is.
type Op = wal.Op

// OpKind discriminates batch operations.
type OpKind = wal.OpKind

const (
	// OpPut inserts Key/Val (multiset semantics, like Insert).
	OpPut = wal.OpPut
	// OpDelete removes one occurrence of Key (Val ignored).
	OpDelete = wal.OpDelete
)

// bulkMin is the smallest put run worth the bulk loader's sort and
// multi-pass overhead; shorter runs go through point inserts.
const bulkMin = 32

// batchScratch holds one ApplyBatch call's grouping buffers, pooled so
// steady-state batch ingestion allocates nothing (concurrent callers
// each take their own scratch from the pool).
type batchScratch struct {
	counts, next []int
	homes        []int32
	grouped      []Op
	bulkK, bulkV []int64
	// The WAL commit-wave tickets collected across groups (waited on
	// after the last shard lock is released).
	tickets []wal.Ticket
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func (b *batchScratch) size(nOps, k int) {
	if cap(b.counts) < k+1 {
		b.counts = make([]int, k+1)
		b.next = make([]int, k)
	}
	b.counts = b.counts[:k+1]
	b.next = b.next[:k]
	clear(b.counts)
	if cap(b.homes) < nOps {
		b.homes = make([]int32, nOps)
		b.grouped = make([]Op, nOps)
	}
	b.homes = b.homes[:nOps]
	b.grouped = b.grouped[:nOps]
}

// ApplyBatch applies the batch and returns how many deletions found
// their key. Operations on the same key keep their order (same key →
// same shard, and per-shard order is preserved); operations on
// different shards commute, so the result equals some serial execution
// of the batch. The batch is atomic per shard, not across shards:
// concurrent readers can observe a prefix of the batch.
//
// With a WAL, each shard group is logged as one record under its
// shard's lock once the whole group applied, and the call acknowledges
// only after every group's commit wave is durable — the waits overlap
// across groups, so a K-shard batch pays at most one group-commit
// round trip, not K.
func (m *Map) ApplyBatch(ops []Op) (deleted int, err error) {
	if len(ops) == 0 {
		return 0, nil
	}
	k := len(m.shards)
	b := batchPool.Get().(*batchScratch)
	defer batchPool.Put(b)
	b.size(len(ops), k)

	// Stable counting-sort of ops by shard.
	for i, op := range ops {
		h := m.shardOf(op.Key)
		b.homes[i] = int32(h)
		b.counts[h+1]++
	}
	for i := 1; i <= k; i++ {
		b.counts[i] += b.counts[i-1]
	}
	copy(b.next, b.counts[:k])
	for i, op := range ops {
		h := b.homes[i]
		b.grouped[b.next[h]] = op
		b.next[h]++
	}

	b.tickets = b.tickets[:0]
	for j := 0; j < k; j++ {
		group := b.grouped[b.counts[j]:b.counts[j+1]]
		if len(group) == 0 {
			continue
		}
		s := &m.shards[j]
		s.mu.Lock()
		// Flush-on-snapshot: the batch applies against a fully
		// rebalanced shard, so its bulk runs see policy-compliant
		// densities (a flush failure leaves the shard consistent).
		_ = flushDeferred(s)
		s.beginWrite()
		d, e := applyGroup(s.a, group, &b.bulkK, &b.bulkV)
		s.endWrite()
		if e == nil && m.wal != nil {
			var t wal.Ticket
			if t, e = m.logOps(s, j, group); t.Ok() {
				b.tickets = append(b.tickets, t)
			}
		}
		s.advanceEpoch()
		pending := s.a.PendingCount()
		s.mu.Unlock()
		m.maintenanceHint(pending)
		deleted += d
		if e != nil {
			err = e
			break
		}
	}
	for _, t := range b.tickets {
		if werr := m.wal.Wait(t); werr != nil && err == nil {
			err = werr
		}
	}
	return deleted, err
}

// applyGroup applies one shard's ops in order, batching maximal put
// runs of at least bulkMin through the bulk loader. bulkK/bulkV are
// reusable scratch owned by the caller.
func applyGroup(a *core.Array, group []Op, bulkK, bulkV *[]int64) (deleted int, err error) {
	i := 0
	for i < len(group) {
		if group[i].Kind == OpDelete {
			ok, e := a.Delete(group[i].Key)
			if e != nil {
				return deleted, e
			}
			if ok {
				deleted++
			}
			i++
			continue
		}
		// Maximal run of puts starting at i.
		j := i + 1
		for j < len(group) && group[j].Kind == OpPut {
			j++
		}
		if j-i >= bulkMin {
			*bulkK, *bulkV = (*bulkK)[:0], (*bulkV)[:0]
			for _, op := range group[i:j] {
				*bulkK = append(*bulkK, op.Key)
				*bulkV = append(*bulkV, op.Val)
			}
			if e := a.BulkLoad(core.Batch{Keys: *bulkK, Vals: *bulkV}); e != nil {
				return deleted, e
			}
		} else {
			for _, op := range group[i:j] {
				if e := a.Insert(op.Key, op.Val); e != nil {
					return deleted, e
				}
			}
		}
		i = j
	}
	return deleted, nil
}

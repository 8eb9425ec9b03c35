package core

import "rma/internal/vmem"

// The lock-free read path (see CONCURRENCY.md, "The read contract").
// It reads the clustered layout only — the one layout the serving layer
// runs (shard.New refuses any other).
//
// A seqlock reader cannot touch the Array's working fields directly:
// a resize replaces whole slice headers (cards, the page tables), and a
// torn read of a slice header — pointer from one epoch, length from
// another — is undefined behavior territory, unlike a torn read of an
// int64 element, which the version revalidation simply rejects. The
// split is therefore:
//
//   - readView captures every reader-reachable header (geometry, cards,
//     index, page tables) in one immutable struct published
//     through an atomic pointer. It is republished only at the cold
//     points where geometry changes — resetDerived, the resizeTo tail,
//     durable Open — all of which run under the shard's write lock.
//   - Between publishes, writers mutate only word-sized values
//     reachable from the view: int64 elements and int32 cards in place,
//     page-table entries via Swap's single pointer store, separator
//     words via ix.Update. Word-sized loads are atomic on every
//     supported 64-bit platform, so a racing reader sees either the old
//     or the new word, never a blend — and either way the shard's
//     seqlock version has changed, so the value is discarded and the
//     read retried.
//   - A reader holding a stale view (captured just before a publish)
//     reads from the *old* headers: the old cards/pages are kept
//     alive by the view itself (Go's GC is the RCU grace period for
//     headers), and the retired physical pages behind a stale page
//     table are kept unscribbled by the vmem epoch gate until the
//     reader's epoch passes. Values read this way still fail the
//     version check and are discarded; what the view+gate guarantee is
//     memory safety and bounded garbage, not freshness.
//
// Every Read* method is defensive: garbage geometry (a card beyond the
// segment size, a page table shorter than the capacity, a rank beyond
// the card) returns valid=false instead of panicking, because a reader
// racing a publish can observe any mix of old and new words. The shard
// layer retries on valid=false exactly as it does on a version
// mismatch.

// readView is one immutable snapshot of the Array's reader-reachable
// headers. Fields are never mutated after publish; the slices they
// point at are mutated word-by-word by writers (see above).
type readView struct {
	numSegs   int
	segSlots  int
	pageShift uint
	pageSlots int
	cards     []int32
	ix        segIndex
	keysTab   [][]int64
	valsTab   [][]int64
}

// publishView captures the current headers into a fresh readView and
// publishes it. Called at every geometry change, under the shard's
// write lock; the allocation is part of the (already allocating)
// resize/build machinery. Other layouts publish nothing, so their Read*
// probes report valid=false instead of misreading the slots.
func (a *Array) publishView() {
	if a.cfg.Layout != LayoutClustered {
		return
	}
	v := &readView{
		numSegs:   a.numSegs,
		segSlots:  a.segSlots,
		pageShift: a.pageShift,
		pageSlots: a.cfg.PageSlots,
		cards:     a.cards,
		ix:        a.ix,
		keysTab:   a.keys.Table(),
		valsTab:   a.vals.Table(),
	}
	a.view.Store(v)
}

// AttachEpochGate routes both page spaces' retirement through g, so
// rebalance page swaps defer recycling until readers quiesce. Called
// once before the owning shard is shared.
func (a *Array) AttachEpochGate(g *vmem.EpochGate) {
	a.keys.AttachEpochGate(g)
	a.vals.AttachEpochGate(g)
}

// ReadFind is the lock-free counterpart of Find: it resolves key
// against the published view without touching the Array's mutable
// state (no stats, no scratch). valid=false means the view was torn by
// a concurrent writer and the caller must retry (or fall back to the
// locked path); ok is meaningful only when valid is true.
//
//rma:noalloc
func (a *Array) ReadFind(key int64) (val int64, ok, valid bool) {
	v := a.view.Load()
	if v == nil {
		return 0, false, false
	}
	return v.find(key)
}

// ReadFloor is the lock-free counterpart of Floor (same contract as
// ReadFind).
//
//rma:noalloc
func (a *Array) ReadFloor(x int64) (key, val int64, ok, valid bool) {
	v := a.view.Load()
	if v == nil {
		return 0, 0, false, false
	}
	return v.floor(x)
}

// ReadCeiling is the lock-free counterpart of Ceiling (same contract
// as ReadFind).
//
//rma:noalloc
func (a *Array) ReadCeiling(x int64) (key, val int64, ok, valid bool) {
	v := a.view.Load()
	if v == nil {
		return 0, 0, false, false
	}
	return v.ceiling(x)
}

// card returns segment seg's cardinality clamped to the view's
// geometry; ok=false flags a torn value.
func (v *readView) card(seg int) (int, bool) {
	if seg < 0 || seg >= len(v.cards) {
		return 0, false
	}
	c := int(v.cards[seg])
	if c < 0 || c > v.segSlots {
		return 0, false
	}
	return c, true
}

// runBounds mirrors Array.runBounds with an explicit cardinality.
func (v *readView) runBounds(seg, c int) (lo, hi int) {
	if seg&1 == 0 {
		return v.segSlots - c, v.segSlots
	}
	return 0, c
}

// segAt fetches segment seg's key and value pages defensively: every
// bound is validated against the captured headers, so a reader racing a
// resize gets ok=false instead of an out-of-range panic.
func (v *readView) segAt(seg int) (kpg, vpg []int64, off int, ok bool) {
	slot := seg * v.segSlots
	p := slot >> v.pageShift
	if p < 0 || p >= len(v.keysTab) || p >= len(v.valsTab) {
		return nil, nil, 0, false
	}
	kpg, vpg = v.keysTab[p], v.valsTab[p]
	off = slot & (v.pageSlots - 1)
	if off+v.segSlots > len(kpg) || off+v.segSlots > len(vpg) {
		return nil, nil, 0, false
	}
	return kpg, vpg, off, true
}

// find resolves one point lookup against the view. The last result is
// the validity flag; the first two mirror Find's (value, found).
func (v *readView) find(key int64) (int64, bool, bool) {
	seg := v.ix.FindUB(key)
	if seg < 0 || seg >= v.numSegs {
		return 0, false, false
	}
	c, cok := v.card(seg)
	if !cok {
		return 0, false, false
	}
	kpg, vpg, off, ok := v.segAt(seg)
	if !ok {
		return 0, false, false
	}
	lo, hi := v.runBounds(seg, c)
	r := searchRun(kpg[off+lo:off+hi], key)
	if r < 0 {
		return 0, false, true
	}
	return vpg[off+lo+r], true, true
}

// elem returns the rank-th element of segment seg, defensively.
func (v *readView) elem(seg, rank int) (key, val int64, ok bool) {
	if rank < 0 {
		return 0, 0, false
	}
	kpg, vpg, off, segOK := v.segAt(seg)
	if !segOK {
		return 0, 0, false
	}
	c, cok := v.card(seg)
	if !cok || rank >= c {
		return 0, 0, false
	}
	lo, _ := v.runBounds(seg, c)
	return kpg[off+lo+rank], vpg[off+lo+rank], true
}

// segUpperBound counts elements of seg with key <= x (view mirror of
// Array.segUpperBound).
func (v *readView) segUpperBound(seg, c int, x int64) (int, bool) {
	kpg, _, off, ok := v.segAt(seg)
	if !ok {
		return 0, false
	}
	lo, hi := v.runBounds(seg, c)
	return upperBoundRun(kpg[off+lo:off+hi], x), true
}

// segLowerBound counts elements of seg with key < x.
func (v *readView) segLowerBound(seg, c int, x int64) (int, bool) {
	kpg, _, off, ok := v.segAt(seg)
	if !ok {
		return 0, false
	}
	lo, hi := v.runBounds(seg, c)
	return lowerBoundRun(kpg[off+lo:off+hi], x), true
}

// floor mirrors Array.Floor against the view.
func (v *readView) floor(x int64) (key, val int64, ok, valid bool) {
	seg := v.ix.FindUB(x)
	if seg < 0 || seg >= v.numSegs {
		return 0, 0, false, false
	}
	c, cok := v.card(seg)
	if !cok {
		return 0, 0, false, false
	}
	if c > 0 {
		r, rok := v.segUpperBound(seg, c, x)
		if !rok {
			return 0, 0, false, false
		}
		if r > 0 {
			k, vv, eok := v.elem(seg, r-1)
			if !eok {
				return 0, 0, false, false
			}
			return k, vv, true, true
		}
	}
	for s := seg - 1; s >= 0; s-- {
		sc, sok := v.card(s)
		if !sok {
			return 0, 0, false, false
		}
		if sc > 0 {
			k, vv, eok := v.elem(s, sc-1)
			if !eok {
				return 0, 0, false, false
			}
			return k, vv, true, true
		}
	}
	return 0, 0, false, true
}

// ceiling mirrors Array.Ceiling against the view.
func (v *readView) ceiling(x int64) (key, val int64, ok, valid bool) {
	seg := v.ix.FindLB(x)
	if seg < 0 || seg >= v.numSegs {
		return 0, 0, false, false
	}
	c, cok := v.card(seg)
	if !cok {
		return 0, 0, false, false
	}
	if c > 0 {
		r, rok := v.segLowerBound(seg, c, x)
		if !rok {
			return 0, 0, false, false
		}
		if r < c {
			k, vv, eok := v.elem(seg, r)
			if !eok {
				return 0, 0, false, false
			}
			return k, vv, true, true
		}
	}
	for s := seg + 1; s < v.numSegs; s++ {
		sc, sok := v.card(s)
		if !sok {
			return 0, 0, false, false
		}
		if sc > 0 {
			k, vv, eok := v.elem(s, 0)
			if !eok {
				return 0, 0, false, false
			}
			return k, vv, true, true
		}
	}
	return 0, 0, false, true
}

package vmem

import "sync/atomic"

// Epoch-based reclamation for rewired pages.
//
// A page-table Swap is the RCU publish point of a rebalance: the new
// page is installed with one pointer store, and the old page would
// normally return to the spare pool immediately. With lock-free readers
// that is too early — a seqlock reader that captured the old table entry
// may still be scanning the old page, and a later rebalance recycling it
// as a spare would scribble over the slots mid-read. The reader's
// version revalidation rejects any value read from such a page, so this
// is a retry-storm problem rather than a safety problem; the gate turns
// the storm back into quiet: retired pages sit in a limbo list until
// every reader that could have seen the old mapping has provably left,
// and only then rejoin the spare pool — through ReleaseSpare, so only up
// to the pool's bound; the rest are dropped for the garbage collector.
//
// The scheme is the classic two-bucket parity EBR:
//
//   - The gate keeps a global epoch counter E and two reader counters,
//     indexed by epoch parity. A reader entering pins bucket E&1; it
//     exits the same bucket it entered.
//   - Retiring a page tags it with the current epoch.
//   - Advancing from E to E+1 requires bucket (E+1)&1 — the bucket new
//     readers would reuse — to be empty. After the advance, pages
//     retired at epoch <= E-1 are freed: every reader that could hold
//     their old mapping entered at epoch <= E-1, i.e. in a bucket that
//     has since been observed empty at an advance.
//
// Enter is a load plus one counter increment; the load-then-increment
// window is benign: a reader that loads E right before an advance lands
// its increment in the old bucket, which conservatively blocks the
// *next* advance rather than the one in flight, and the reader has read
// no table state before its increment is visible.
//
// Locking discipline: Enter/Exit and the diagnostic accessors are
// atomics, callable from anywhere. Retire and TryAdvance touch the
// limbo list and must run under the owning shard's write lock — the
// same lock that serializes the Swaps that feed Retire — so the gate
// adds no mutex and no lock-order edge (lockcheck sees nothing new).
type EpochGate struct {
	epoch atomic.Uint64

	// readers counts in-flight readers per epoch parity, padded so the
	// two buckets (and the epoch word above) do not share a cache line
	// under concurrent Enter/Exit traffic.
	readers [2]struct {
		n atomic.Int64
		_ [56]byte
	}

	limboLen atomic.Int64  // pages currently in limbo (lock-free peek)
	advances atomic.Uint64 // successful epoch advances

	// limbo holds retired pages not yet returned to their spare pools.
	// Guarded by the owning shard's write lock (see above), not by any
	// lock of its own.
	limbo []limboPage
}

// limboPage is one retired physical page awaiting reclamation.
type limboPage struct {
	owner *Pages
	pg    []int64
	epoch uint64
}

// NewEpochGate returns a gate at epoch 0 with no readers and an empty
// limbo list.
func NewEpochGate() *EpochGate { return &EpochGate{} }

// Enter pins the current epoch for a reader and returns the parity
// bucket to hand back to Exit. Wait-free; never blocks writers.
func (g *EpochGate) Enter() uint32 {
	p := uint32(g.epoch.Load() & 1)
	g.readers[p].n.Add(1)
	return p
}

// Exit releases a reader's epoch pin. p must be the value Enter
// returned.
func (g *EpochGate) Exit(p uint32) {
	g.readers[p].n.Add(-1)
}

// Retire moves a page detached by a Swap or Truncate into limbo, tagged
// with the current epoch. Must run under the owning shard's write lock.
func (g *EpochGate) Retire(owner *Pages, pg []int64) {
	g.limbo = append(g.limbo, limboPage{owner: owner, pg: pg, epoch: g.epoch.Load()}) //rma:cap-ok — limbo capacity is amortized like the spare pool's
	g.limboLen.Add(1)
}

// TryAdvance attempts one epoch advance, freeing every limbo page whose
// retirement epoch is at least two advances old (see the type comment
// for the safety argument) into its owner's bounded spare pool. It
// fails — harmlessly, to be retried at the next quiesce point — while a
// reader still pins the bucket the next epoch would reuse. Must run under the same shard write lock that
// serializes Retire.
func (g *EpochGate) TryAdvance() bool {
	e := g.epoch.Load()
	if g.readers[(e+1)&1].n.Load() != 0 {
		return false
	}
	g.epoch.Store(e + 1)
	g.advances.Add(1)
	if e == 0 || len(g.limbo) == 0 {
		return true
	}
	keep := g.limbo[:0]
	freed := 0
	for _, lp := range g.limbo {
		if lp.epoch <= e-1 {
			lp.owner.ReleaseSpare(lp.pg)
			freed++
		} else {
			keep = append(keep, lp)
		}
	}
	for i := len(keep); i < len(g.limbo); i++ {
		g.limbo[i] = limboPage{} // drop page references for the GC
	}
	g.limbo = keep
	g.limboLen.Add(int64(-freed))
	return true
}

// LimboPages returns the number of retired pages awaiting reclamation.
// Lock-free diagnostic; writers use it to decide whether an advance is
// worth attempting.
func (g *EpochGate) LimboPages() int { return int(g.limboLen.Load()) }

// Advances returns the number of successful epoch advances.
func (g *EpochGate) Advances() uint64 { return g.advances.Load() }

// FootprintBytes returns the memory held by limbo pages and the limbo
// list itself (the spare-pool share that moved here). Call under the
// owning shard's write lock.
func (g *EpochGate) FootprintBytes() int64 {
	var slots int64
	for _, lp := range g.limbo {
		slots += int64(cap(lp.pg))
	}
	return slots*8 + int64(cap(g.limbo))*40
}

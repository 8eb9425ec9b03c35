// Package vmem provides the memory-rewiring substrate of the RMA.
//
// The paper implements rebalances and resizes with "memory rewiring"
// (RUMA, Schuhknecht et al., PVLDB 2016): the array occupies a range of
// virtual pages, spare physical pages are kept on the side, elements are
// redistributed by writing them once into the spare pages, and then the
// virtual addresses of the old and new pages are swapped — an O(1)
// page-table operation instead of a second copy per element.
//
// This package reproduces that cost structure in a GC-safe way: a virtual
// address space is a table of physical pages (Go slices), and "rewiring"
// swaps table entries. The properties the algorithms rely on are
// preserved exactly:
//
//   - one copy per element during a rebalance (writes go straight to the
//     spare page; installation is a pointer swap);
//   - spare pages are recycled without zeroing, so resizes avoid the cost
//     of acquiring zeroed memory (the analog of the paper's observation
//     that rewiring "alleviates the overhead in acquiring new zeroed
//     physical pages from the operating system" — in Go, a fresh
//     make([]int64, n) is always zeroed by the runtime, and the pool
//     skips it);
//   - growing the address space absorbs the existing spare buffers first,
//     as the paper does when expanding the RMA;
//   - the spare pool is bounded by the array's own size, as the paper
//     bounds its buffer: every page entering it passes release, which
//     drops it at spareBound, so the bound holds with or without a gate.
//
// The package counts copies, swaps, fresh allocations and zeroed slots so
// benchmarks can expose the one-copy-vs-two-copy asymmetry that the
// paper's Figure 14 ("Memory rewiring") measures.
package vmem

import (
	"errors"
	"fmt"
	"math/bits"
)

// ErrAllocFailed reports that a physical page allocation failed. It is
// returned only under failure injection (production Go surfaces memory
// exhaustion as a runtime panic); the data structure must remain intact
// and consistent when it is returned.
var ErrAllocFailed = errors.New("vmem: physical page allocation failed")

// Pages is a virtual address space of int64 slots organized in fixed-size
// pages with an explicit virtual-to-physical mapping.
//
// Virtual page v of a Pages p is the slice p.Page(v); slot i of the space
// lives at p.Page(i/p.PageSlots())[i%p.PageSlots()]. The zero value is not
// usable; call New.
type Pages struct {
	pageSlots int
	table     [][]int64 // virtual page id -> physical page
	spares    [][]int64 // pool of detached physical pages

	// acquireBuf backs AcquireSpares results so steady-state rebalances
	// acquire their spare pages without allocating a fresh [][]int64.
	acquireBuf [][]int64

	// dirty is the page-granular dirty bitmap for checkpointing: bit v is
	// set when virtual page v's content may have changed since the last
	// FileRegion checkpoint. nil until EnableDirtyTracking — marking is a
	// nil-check plus a bit set, so the hot write paths stay branch-cheap
	// and allocation-free whether durability is attached or not. Swap,
	// Grow and Append mark automatically (a rewired page always carries
	// new content); in-place writes through Page slices are invisible
	// here, so callers that mutate page content directly mark via
	// MarkDirty/MarkDirtyRange (internal/core does so in cardAdd and
	// applyCards, which every content-changing path passes through).
	dirty []uint64

	// gate, when non-nil, intercepts page retirement: Swap and Truncate
	// route detached pages through the epoch gate's limbo list instead
	// of straight back to the spare pool, so lock-free readers holding a
	// stale table entry never see a retired page recycled under them
	// (see epoch.go). Attached once before the owning shard is shared.
	gate *EpochGate

	stats Stats

	failAfter int // fail the n-th next physical allocation; -1 = disabled
}

// Stats aggregates the substrate's operation counters.
type Stats struct {
	Swaps       uint64 // virtual page-table entry swaps (rewiring operations)
	FreshAllocs uint64 // physical pages allocated from the Go runtime
	PoolReuses  uint64 // physical pages taken from the spare pool (no zeroing)
	ZeroedSlots uint64 // slots zeroed by fresh allocations
}

// New returns an empty address space with the given page size in slots.
func New(pageSlots int) *Pages {
	if pageSlots <= 0 {
		panic(fmt.Sprintf("vmem: invalid pageSlots %d", pageSlots))
	}
	return &Pages{pageSlots: pageSlots, failAfter: -1}
}

// PageSlots returns the number of int64 slots per page.
func (p *Pages) PageSlots() int { return p.pageSlots }

// NumPages returns the number of virtual pages currently mapped.
func (p *Pages) NumPages() int { return len(p.table) }

// Slots returns the total number of addressable slots.
func (p *Pages) Slots() int { return len(p.table) * p.pageSlots }

// SparePages returns the current size of the spare pool.
func (p *Pages) SparePages() int { return len(p.spares) }

// Page returns the physical page currently mapped at virtual page v.
func (p *Pages) Page(v int) []int64 { return p.table[v] }

// Get returns the value at slot i. Convenience accessor for tests and
// cold paths; hot paths should hold a Page slice.
func (p *Pages) Get(i int) int64 {
	return p.table[i/p.pageSlots][i%p.pageSlots]
}

// Set stores x at slot i. Convenience accessor for tests and cold paths.
func (p *Pages) Set(i int, x int64) {
	v := i / p.pageSlots
	p.table[v][i%p.pageSlots] = x
	if p.dirty != nil {
		p.dirty[v>>6] |= 1 << (uint(v) & 63)
	}
}

// EnableDirtyTracking switches on the page-granular dirty bitmap and
// marks every currently mapped page dirty (nothing is known to be
// checkpointed yet). Idempotent; called when durability is attached.
func (p *Pages) EnableDirtyTracking() {
	if p.dirty != nil {
		return
	}
	p.dirty = make([]uint64, (len(p.table)+63)/64+1) //rma:alloc-ok — durability attach is a cold path
	p.MarkDirtyRange(0, len(p.table))
}

// DirtyTracking reports whether the dirty bitmap is enabled.
func (p *Pages) DirtyTracking() bool { return p.dirty != nil }

// growDirty extends the dirty bitmap to the table length and marks pages
// [old, len) dirty: recycled pages carry stale content, fresh ones are in
// no checkpoint yet. No-op when tracking is off.
func (p *Pages) growDirty(old int) {
	if p.dirty == nil {
		return
	}
	if need := (len(p.table)+63)/64 + 1; need > len(p.dirty) {
		d := make([]uint64, need) //rma:alloc-ok — bitmap growth rides the cold resize machinery
		copy(d, p.dirty)
		p.dirty = d
	}
	p.MarkDirtyRange(old, len(p.table))
}

// MarkDirty records that virtual page v's content may have changed
// since the last checkpoint. No-op when tracking is off; never
// allocates.
func (p *Pages) MarkDirty(v int) {
	if p.dirty != nil {
		p.dirty[v>>6] |= 1 << (uint(v) & 63)
	}
}

// MarkDirtyRange marks virtual pages [lo, hi) dirty. No-op when
// tracking is off; never allocates.
func (p *Pages) MarkDirtyRange(lo, hi int) {
	if p.dirty == nil {
		return
	}
	for v := lo; v < hi; v++ {
		p.dirty[v>>6] |= 1 << (uint(v) & 63)
	}
}

// IsDirty reports whether page v must be persisted by the next
// checkpoint. With tracking off every page is conservatively dirty.
func (p *Pages) IsDirty(v int) bool {
	if p.dirty == nil {
		return true
	}
	return p.dirty[v>>6]&(1<<(uint(v)&63)) != 0
}

// ClearDirty resets the whole bitmap; called after a successful
// checkpoint has persisted every dirty page.
func (p *Pages) ClearDirty() {
	for i := range p.dirty {
		p.dirty[i] = 0
	}
}

// DirtyCount returns the number of pages currently marked dirty.
func (p *Pages) DirtyCount() int {
	n := 0
	for _, w := range p.dirty {
		n += bits.OnesCount64(w)
	}
	return n
}

// ForEachDirty calls fn for every dirty virtual page in ascending
// order. fn must not mutate the bitmap.
func (p *Pages) ForEachDirty(fn func(v int)) {
	for i, w := range p.dirty {
		for w != 0 {
			v := i<<6 + bits.TrailingZeros64(w)
			if v < len(p.table) {
				fn(v)
			}
			w &= w - 1
		}
	}
}

// alloc produces one physical page, preferring the spare pool (recycled
// without zeroing) over a fresh, runtime-zeroed allocation.
func (p *Pages) alloc() ([]int64, error) {
	if p.failAfter == 0 {
		return nil, ErrAllocFailed
	}
	if p.failAfter > 0 {
		p.failAfter--
	}
	if n := len(p.spares); n > 0 {
		pg := p.spares[n-1]
		p.spares = p.spares[:n-1]
		p.stats.PoolReuses++
		return pg, nil
	}
	p.stats.FreshAllocs++
	p.stats.ZeroedSlots += uint64(p.pageSlots)
	return make([]int64, p.pageSlots), nil //rma:alloc-ok — fresh page when the pool is dry (Stats.FreshAllocs)
}

// allocAppend appends n physical pages to out, preferring the spare pool
// (recycled without zeroing); the fresh remainder is carved from a single
// backing allocation, so growing by many pages costs one make instead of
// one per page. On failure the already-taken pages return to the pool and
// out is restored to its original length.
//
// Note the batching trade-off: pages carved from one backing share it,
// so the garbage collector reclaims the batch only once every page of it
// has been dropped: a page the pool bound drops leaves FootprintBytes at
// once but stays on the heap while any page of its batch is live.
func (p *Pages) allocAppend(out [][]int64, n int) ([][]int64, error) {
	base := len(out)
	for n > 0 && len(p.spares) > 0 {
		if p.failAfter == 0 {
			p.release(out[base:]...)
			return out[:base], ErrAllocFailed
		}
		if p.failAfter > 0 {
			p.failAfter--
		}
		m := len(p.spares)
		pg := p.spares[m-1]
		p.spares = p.spares[:m-1]
		p.stats.PoolReuses++
		out = append(out, pg) //rma:cap-ok — out is pre-sized by AcquireSpares
		n--
	}
	if n == 0 {
		return out, nil
	}
	if p.failAfter >= 0 && p.failAfter < n {
		// The injected failure lands inside the fresh batch: fall back to
		// page-by-page allocation for exact failure semantics.
		for ; n > 0; n-- {
			pg, err := p.alloc()
			if err != nil {
				p.release(out[base:]...)
				return out[:base], err
			}
			out = append(out, pg) //rma:cap-ok — out is pre-sized by AcquireSpares
		}
		return out, nil
	}
	if p.failAfter > 0 {
		p.failAfter -= n
	}
	backing := make([]int64, n*p.pageSlots) //rma:alloc-ok — fresh batch when the pool is dry (Stats.FreshAllocs)
	p.stats.FreshAllocs += uint64(n)
	p.stats.ZeroedSlots += uint64(n * p.pageSlots)
	for i := 0; i < n; i++ {
		out = append(out, backing[i*p.pageSlots:(i+1)*p.pageSlots:(i+1)*p.pageSlots]) //rma:cap-ok — out is pre-sized by AcquireSpares
	}
	return out, nil
}

// Grow extends the address space by n virtual pages, absorbing spare
// buffers first as the paper does when expanding the RMA. On failure the
// address space is unchanged. With dirty tracking on, the new pages are
// born dirty.
func (p *Pages) Grow(n int) error {
	table, err := p.allocAppend(p.table, n)
	if err != nil {
		return err
	}
	old := len(p.table)
	p.table = table
	p.growDirty(old)
	return nil
}

// Append maps pgs, pages already filled by the caller (from
// AcquireSpares), as new virtual pages at the end of the address space.
// With dirty tracking on, they are born dirty.
func (p *Pages) Append(pgs [][]int64) {
	for _, pg := range pgs {
		if len(pg) != p.pageSlots {
			panic("vmem: Append of foreign page")
		}
	}
	old := len(p.table)
	p.table = append(p.table, pgs...)
	p.growDirty(old)
}

// Truncate shrinks the address space to n virtual pages; the unmapped
// physical pages return to the spare pool (or, with an epoch gate
// attached, to its limbo list until readers quiesce). The pool bound
// shrinks with the table, so pooled pages beyond it are dropped first.
func (p *Pages) Truncate(n int) {
	if n > len(p.table) {
		panic(fmt.Sprintf("vmem: Truncate(%d) beyond %d pages", n, len(p.table)))
	}
	retired := p.table[n:]
	p.table = p.table[:n]
	if b := p.spareBound(); len(p.spares) > b {
		clear(p.spares[b:])
		p.spares = p.spares[:b]
	}
	for i, pg := range retired {
		retired[i] = nil
		if p.dirty != nil {
			v := n + i
			p.dirty[v>>6] &^= 1 << (uint(v) & 63)
		}
		p.retire(pg)
	}
}

// AcquireSpare detaches one spare physical page for the caller to fill.
// Pair with Swap or ReleaseSpare.
func (p *Pages) AcquireSpare() ([]int64, error) { return p.alloc() }

// AcquireSpares detaches n spare pages at once, or none on failure —
// callers pre-acquire everything a rebalance needs so that a failure
// cannot leave the structure half-rewired.
//
// The returned slice aliases an internal reusable buffer: it is valid
// only until the next AcquireSpares call on this Pages, which is exactly
// the lifetime a rebalance needs (acquire, fill, Swap) and keeps the
// steady-state rebalance path allocation-free.
func (p *Pages) AcquireSpares(n int) ([][]int64, error) {
	if cap(p.acquireBuf) < n {
		p.acquireBuf = make([][]int64, 0, n) //rma:alloc-ok — scratch grows to the largest acquisition seen
	}
	out, err := p.allocAppend(p.acquireBuf[:0], n)
	if err != nil {
		return nil, err
	}
	p.acquireBuf = out
	return out, nil
}

// ReleaseSpare returns a detached page to the pool unused (see release).
func (p *Pages) ReleaseSpare(pg []int64) {
	if len(pg) != p.pageSlots {
		panic("vmem: ReleaseSpare of foreign page")
	}
	p.release(pg)
}

// Swap installs pg as the physical page of virtual page v and returns the
// previously mapped physical page to the spare pool. This is the rewiring
// operation: O(1), no element copies.
func (p *Pages) Swap(v int, pg []int64) {
	if len(pg) != p.pageSlots {
		panic("vmem: Swap with foreign page")
	}
	old := p.table[v]
	p.table[v] = pg
	p.retire(old)
	p.stats.Swaps++
	if p.dirty != nil {
		p.dirty[v>>6] |= 1 << (uint(v) & 63)
	}
}

// retire sends a page just unmapped to the epoch gate's limbo when one is
// attached (it reaches the pool later, through ReleaseSpare), else pools it.
func (p *Pages) retire(pg []int64) {
	if p.gate != nil {
		p.gate.Retire(p, pg)
		return
	}
	p.release(pg)
}

// spareBound is the most pages the pool may hold: an eighth of the mapped
// pages, plus one. The paper caps its buffer at the array's own size; an
// eighth keeps the footprint near that while still recycling pages.
func (p *Pages) spareBound() int { return len(p.table)/8 + 1 }

// release is the one landing point of the spare pool: every page that
// enters it comes through here, and one arriving at a full pool is
// dropped for the garbage collector.
func (p *Pages) release(pgs ...[]int64) {
	for _, pg := range pgs {
		if len(p.spares) < p.spareBound() {
			p.spares = append(p.spares, pg) //rma:cap-ok — the pool is bounded; its capacity is amortized
		}
	}
}

// AttachEpochGate routes this space's page retirement (Swap, Truncate)
// through g's limbo list. Attach once, before the owning shard is
// shared; the field is immutable afterwards, so hot paths read it
// without synchronization.
func (p *Pages) AttachEpochGate(g *EpochGate) { p.gate = g }

// Gate returns the attached epoch gate, or nil.
func (p *Pages) Gate() *EpochGate { return p.gate }

// Table returns the live virtual-to-physical page table. Lock-free
// readers capture this slice header in their published view; within an
// epoch only single-word entry stores mutate it (Swap), which is what
// the seqlock revalidation protocol tolerates. Callers must not modify
// the returned slice.
func (p *Pages) Table() [][]int64 { return p.table }

// Stats returns the operation counters accumulated so far.
func (p *Pages) Stats() Stats { return p.stats }

// FootprintBytes returns the physical memory held: mapped pages, spare
// pages, and the page table itself.
func (p *Pages) FootprintBytes() int64 {
	pages := int64(len(p.table) + len(p.spares))
	return pages*int64(p.pageSlots)*8 + int64(cap(p.table)+cap(p.spares)+cap(p.acquireBuf))*24
}

// InjectAllocFailure makes the n-th next physical allocation fail
// (n == 0 fails the very next one). Pass a negative n to disable.
// Testing hook only.
func (p *Pages) InjectAllocFailure(n int) { p.failAfter = n }

package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"rma/internal/calibrator"
	"rma/internal/detector"
	"rma/internal/staticindex"
	"rma/internal/vmem"
)

// unsetSep is the separator value of segments that have never held an
// element: it routes every key to the left, so inserts fill the array
// from segment 0 until rebalances spread them.
const unsetSep = int64(math.MaxInt64)

// segIndex is the routing structure from keys to segments; implemented by
// both the static and the dynamic index.
type segIndex interface {
	FindUB(key int64) int
	FindLB(key int64) int
	Update(j int, min int64)
	Key(j int) int64
	FootprintBytes() int64
}

// Array is a sparse array of sorted 8-byte key/value pairs: the engine
// behind the RMA and its TPMA/APMA baselines. Keys form a multiset
// (duplicates allowed); values travel with their key through every
// rebalance. Not safe for concurrent use, like the paper's sequential
// implementation.
type Array struct {
	cfg Config

	keys *vmem.Pages
	vals *vmem.Pages

	segSlots int // current segment capacity B
	numSegs  int
	n        int // stored elements

	cards  []int32  // per-segment cardinality (the paper's "cards" array)
	fen    fenwick  // prefix sums over cards, for order statistics
	bitmap []uint64 // occupancy, interleaved layout only

	cal calibrator.Tree
	ix  segIndex
	det *detector.Detector // nil unless adaptive

	clock uint64 // logical timestamp for the detector

	stats Stats

	// Reusable scratch for two-pass rebalances and bulk loads.
	scratchK, scratchV []int64
	scratchC           []int32
	// Reusable scratch for rebalance target cardinalities and span
	// lists: a steady-state rebalance must not allocate (see
	// PERFORMANCE.md), so these persist across calls.
	targetsBuf         []int
	srcSpans, dstSpans []span
	// Reusable scratch for adaptive mark processing (ROADMAP open item:
	// the detector's mark path must not allocate in steady state):
	// window prefix cardinalities, the merged interval list, per-depth
	// interval splits of the adaptive recursion, and APMA's marked-segment
	// flags.
	prefixBuf []int
	ivBuf     []interval
	ivSplit   [][2][]interval
	markedBuf []bool
	// Reusable probe-ordering scratch for FindBatch (steady-state
	// batched lookups must not allocate; same pattern as the rebalance
	// scratch above). probeTmp is the radix sort's ping-pong buffer.
	probeBuf []probe
	probeTmp []probe
	// One-slot cache of walker compaction buffers (interleaved layout):
	// NewWalker/IterDescend borrow the pair and return it when done, so
	// steady-state seek-and-scan allocates nothing; a nested walker
	// finds the slot empty and allocates its own.
	walkK, walkV []int64
	pageShift    uint // log2(PageSlots)

	// Deferred rebalancing (see pending.go): when deferred is on, an
	// overflowing insert does only a minimal local spread and queues
	// the density violation here for the maintenance layer.
	deferred bool
	pending  pendingQueue

	// dur is the attached durability region (see durable.go); nil for a
	// purely in-memory array.
	dur *vmem.FileRegion

	// walLSN is the LSN of the last write-ahead-log record applied to
	// this array (0 without a WAL). The shard layer maintains it under
	// the shard lock; checkpoints persist it as the replay floor.
	walLSN uint64

	// view is the published lock-free read snapshot (see readpath.go):
	// an immutable capture of every reader-reachable header, stored
	// through an atomic pointer and republished at each geometry change.
	// Readers load it without the shard lock; everything else about the
	// Array keeps its "not safe for concurrent use" contract.
	view atomic.Pointer[readView]
}

// New builds an empty array with the given configuration.
func New(cfg Config) (*Array, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &Array{cfg: cfg}
	a.pageShift = uint(log2(cfg.PageSlots))

	minCap := cfg.PageSlots // one page minimum
	b := cfg.SegmentSlots
	if cfg.Sizing == SizingLogCap {
		b = logSegSize(minCap, cfg.PageSlots)
	}
	a.segSlots = b
	a.numSegs = minCap / b
	if err := a.initStorage(minCap); err != nil {
		return nil, err
	}
	a.resetDerived()
	return a, nil
}

// initStorage dimensions the page spaces to capSlots slots.
func (a *Array) initStorage(capSlots int) error {
	a.keys = vmem.New(a.cfg.PageSlots)
	a.vals = vmem.New(a.cfg.PageSlots)
	pages := capSlots / a.cfg.PageSlots
	if err := a.keys.Grow(pages); err != nil {
		return err
	}
	if err := a.vals.Grow(pages); err != nil {
		return err
	}
	return nil
}

// resetDerived rebuilds everything derived from (numSegs, segSlots):
// cards, bitmap, calibrator, index, detector. Content is assumed empty.
func (a *Array) resetDerived() {
	a.cards = make([]int32, a.numSegs)
	a.fen.reset(a.cards)
	if a.cfg.Layout == LayoutInterleaved {
		a.bitmap = make([]uint64, (a.Capacity()+63)/64)
	} else {
		a.bitmap = nil
	}
	a.cal = calibrator.NewTree(a.numSegs, a.cfg.Thresholds)
	mins := make([]int64, a.numSegs)
	for i := range mins {
		mins[i] = unsetSep
	}
	a.buildIndex(mins)
	a.warmRebalanceScratch()
	if a.cfg.Adaptive != AdaptiveOff {
		a.det = detector.New(a.numSegs, a.cfg.Detector)
		a.warmAdaptiveScratch()
	}
	a.publishView()
}

// warmRebalanceScratch pre-sizes the rebalance scratch to the widest
// possible window — the root, numSegs segments — so the first
// root-window rebalance of a capacity epoch does not pay a one-time
// growth allocation mid-steady-state. Called wherever the geometry
// changes; allocation stays confined to resize points.
func (a *Array) warmRebalanceScratch() {
	if cap(a.targetsBuf) < a.numSegs {
		a.targetsBuf = make([]int, 0, a.numSegs)
	}
	if cap(a.srcSpans) < a.numSegs {
		a.srcSpans = make([]span, 0, a.numSegs)
	}
	if cap(a.dstSpans) < a.numSegs {
		a.dstSpans = make([]span, 0, a.numSegs)
	}
}

// warmAdaptiveScratch pre-sizes the mark-processing buffers to their
// bounds at the current segment count, so steady-state adaptive
// rebalances never allocate: allocation happens only here, at resize
// points that already reallocate the detector wholesale. The per-depth
// interval splits get a generous fixed capacity instead of their
// (quadratic) worst case — marked-interval counts are tiny in practice,
// and ivSplitScratch still grows them on demand.
func (a *Array) warmAdaptiveScratch() {
	if cap(a.prefixBuf) < a.numSegs+1 {
		a.prefixBuf = make([]int, 0, a.numSegs+1)
	}
	if cap(a.ivBuf) < a.numSegs {
		a.ivBuf = make([]interval, 0, a.numSegs)
	}
	if cap(a.markedBuf) < a.numSegs {
		a.markedBuf = make([]bool, 0, a.numSegs)
	}
	for depth := log2(a.numSegs) + 1; depth >= len(a.ivSplit); {
		a.ivSplit = append(a.ivSplit, [2][]interval{
			make([]interval, 0, 16),
			make([]interval, 0, 16),
		})
	}
}

func (a *Array) buildIndex(mins []int64) {
	switch a.cfg.Index {
	case IndexStatic:
		a.ix = staticindex.NewStatic(mins, a.cfg.IndexFanout)
	case IndexDynamic:
		a.ix = staticindex.NewDynamic(mins)
	default:
		a.ix = staticindex.NewEytzinger(mins)
	}
}

// Size returns the number of stored elements.
func (a *Array) Size() int { return a.n }

// Capacity returns the number of slots.
func (a *Array) Capacity() int { return a.numSegs * a.segSlots }

// NumSegments returns the current number of segments.
func (a *Array) NumSegments() int { return a.numSegs }

// SegmentSlots returns the current segment capacity B.
func (a *Array) SegmentSlots() int { return a.segSlots }

// Config returns the configuration the array was built with.
func (a *Array) Config() Config { return a.cfg }

// Stats returns a snapshot of the operation counters, merged with the
// storage substrate's counters.
func (a *Array) Stats() Stats {
	s := a.stats
	s.PageSwaps = a.keys.Stats().Swaps + a.vals.Stats().Swaps
	return s
}

// FootprintBytes returns the physical memory held by the array: element
// storage (including spare pages), cards, bitmap, index, detector and
// scratch buffers. This is the quantity Fig 12c plots.
func (a *Array) FootprintBytes() int64 {
	f := a.keys.FootprintBytes() + a.vals.FootprintBytes()
	f += int64(cap(a.cards)) * 4
	f += a.fen.footprintBytes()
	f += int64(cap(a.bitmap)) * 8
	f += a.ix.FootprintBytes()
	if a.det != nil {
		f += a.det.FootprintBytes()
	}
	f += int64(cap(a.scratchK)+cap(a.scratchV))*8 + int64(cap(a.scratchC))*4
	f += int64(cap(a.targetsBuf))*8 + int64(cap(a.srcSpans)+cap(a.dstSpans))*48
	f += int64(cap(a.prefixBuf))*8 + int64(cap(a.ivBuf))*24 + int64(cap(a.markedBuf))
	f += int64(cap(a.probeBuf)+cap(a.probeTmp)) * 16
	f += int64(cap(a.walkK)+cap(a.walkV)) * 8
	for _, p := range a.ivSplit {
		f += int64(cap(p[0])+cap(p[1])) * 24
	}
	f += int64(len(a.pending.buf)) * 4
	if g := a.keys.Gate(); g != nil {
		// The gate is shared by both page spaces; count its limbo once.
		f += g.FootprintBytes()
	}
	return f
}

// Density returns the global fill factor n/capacity.
func (a *Array) Density() float64 { return float64(a.n) / float64(a.Capacity()) }

// SegmentDensity returns the fill factor of one segment (inspection).
func (a *Array) SegmentDensity(seg int) float64 {
	return float64(a.cards[seg]) / float64(a.segSlots)
}

// --- segment geometry -----------------------------------------------------

// segPage returns the page holding segment seg's slots and the offset of
// the segment's first slot within it. A segment never crosses a page
// because PageSlots is a multiple of 2*SegmentSlots.
func (a *Array) segPage(p *vmem.Pages, seg int) ([]int64, int) {
	return a.pageAt(p, seg*a.segSlots)
}

// pageAt returns the page slice holding slot s and s's offset within it.
// Hot paths hold the returned slice across a run of nearby slots instead
// of paying vmem.Get's table indirection per slot.
func (a *Array) pageAt(p *vmem.Pages, s int) ([]int64, int) {
	return p.Page(s >> a.pageShift), s & (a.cfg.PageSlots - 1)
}

// runBounds returns the in-segment slot interval [lo, hi) occupied by a
// clustered segment's elements: right-packed for even segments,
// left-packed for odd ones (the paper's odd/even alternation, 0-based).
func (a *Array) runBounds(seg int) (lo, hi int) {
	c := int(a.cards[seg])
	if seg&1 == 0 {
		return a.segSlots - c, a.segSlots
	}
	return 0, c
}

// segMin returns the smallest key stored in segment seg, which must be
// non-empty.
func (a *Array) segMin(seg int) int64 {
	switch a.cfg.Layout {
	case LayoutClustered:
		pg, off := a.segPage(a.keys, seg)
		lo, _ := a.runBounds(seg)
		return pg[off+lo]
	default:
		base := seg * a.segSlots
		s := bmNext(a.bitmap, base, base+a.segSlots)
		if s < 0 {
			panic("core: segMin of empty segment")
		}
		pg, off := a.pageAt(a.keys, s)
		return pg[off]
	}
}

// occupied reports whether interleaved slot s holds an element.
func (a *Array) occupied(s int) bool {
	return a.bitmap[s>>6]&(1<<(uint(s)&63)) != 0
}

func (a *Array) setOccupied(s int, on bool) {
	if on {
		a.bitmap[s>>6] |= 1 << (uint(s) & 63)
	} else {
		a.bitmap[s>>6] &^= 1 << (uint(s) & 63)
	}
}

// --- cardinality maintenance -------------------------------------------------

// cardAdd adjusts segment seg's cardinality by d, keeping the Fenwick
// prefix sums current. Every point insert/delete goes through here, so
// it doubles as the durability hook: the touched segment's page is
// marked dirty for the next checkpoint (a nil-guarded bit set, free
// when durability is off — in-place writes through Page slices are
// invisible to vmem, and this is the choke point they all share).
func (a *Array) cardAdd(seg int, d int32) {
	a.cards[seg] += d
	a.fen.add(seg, int64(d))
	v := (seg * a.segSlots) >> a.pageShift
	a.keys.MarkDirty(v)
	a.vals.MarkDirty(v)
}

// applyCards installs new per-segment cardinalities for the window
// starting at segment lo, folding the per-segment deltas into the
// Fenwick tree. Rebalances and bulk merges go through here; calling it
// twice with the same targets is a no-op the second time. Like cardAdd,
// this is the durability choke point for window writes: every page the
// window spans is marked dirty unconditionally, because an in-place
// redistribution moves elements even in segments whose cardinality is
// unchanged.
func (a *Array) applyCards(lo int, targets []int) {
	for i, t := range targets {
		if d := int64(t) - int64(a.cards[lo+i]); d != 0 {
			a.fen.add(lo+i, d)
			a.cards[lo+i] = int32(t)
		}
	}
	loPage := (lo * a.segSlots) >> a.pageShift
	hiPage := ((lo+len(targets))*a.segSlots + a.cfg.PageSlots - 1) >> a.pageShift
	a.keys.MarkDirtyRange(loPage, hiPage)
	a.vals.MarkDirtyRange(loPage, hiPage)
}

// --- separator maintenance -------------------------------------------------

// setSegMin records that segment seg's minimum changed to min, updating
// the separator of seg and of any empty segments immediately to its left
// (whose separators copy the nearest non-empty segment on their right,
// so the separators stay non-decreasing for the index descent).
func (a *Array) setSegMin(seg int, min int64) {
	if seg > 0 {
		a.ix.Update(seg, min)
	}
	for j := seg - 1; j >= 1 && a.cards[j] == 0; j-- {
		a.ix.Update(j, min)
	}
}

// clearSegMin records that segment seg became empty: its separator (and
// the chain of empty segments to its left) adopts the separator of the
// nearest non-empty segment to the right, or unsetSep if none exists.
func (a *Array) clearSegMin(seg int) {
	carry := unsetSep
	for j := seg + 1; j < a.numSegs; j++ {
		if a.cards[j] > 0 {
			carry = a.segMin(j)
			break
		}
	}
	for j := seg; j >= 1; j-- {
		if j < seg && a.cards[j] != 0 {
			break
		}
		a.ix.Update(j, carry)
	}
}

// --- misc -------------------------------------------------------------------

func log2(x int) int {
	l := 0
	for x > 1 {
		x >>= 1
		l++
	}
	return l
}

// logSegSize derives the TPMA segment size Theta(log2 C) for a capacity,
// rounded up to a power of two (min 8) so window arithmetic stays exact,
// and clamped to the page size so a segment never crosses a page — the
// invariant every hot path's cached page-slice access relies on.
func logSegSize(capSlots, pageSlots int) int {
	l := log2(capSlots)
	b := 8
	for b < l {
		b <<= 1
	}
	if b > pageSlots {
		b = pageSlots
	}
	return b
}

// checkInterface guards that every index kind satisfies segIndex.
var (
	_ segIndex = (*staticindex.Static)(nil)
	_ segIndex = (*staticindex.Dynamic)(nil)
	_ segIndex = (*staticindex.Eytzinger)(nil)
)

func (a *Array) String() string {
	return fmt.Sprintf("core.Array{n=%d cap=%d segs=%d B=%d}", a.n, a.Capacity(), a.numSegs, a.segSlots)
}

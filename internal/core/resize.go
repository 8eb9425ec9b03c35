package core

import (
	"rma/internal/calibrator"
	"rma/internal/vmem"
)

// pair is an element in flight during resizes and bulk loads.
type pair struct{ k, v int64 }

// grow expands the array per the configured resize strategy (Section II)
// and redistributes every element evenly over the new capacity.
func (a *Array) grow() error {
	newCap := a.cal.GrowCapacity(a.Capacity(), a.n+1, a.cfg.PageSlots)
	return a.resizeTo(newCap, nil)
}

// shrink contracts the array if the strategy calls for it.
func (a *Array) shrink() error {
	newCap := a.cal.ShrinkCapacity(a.Capacity(), a.n, a.cfg.PageSlots, a.cfg.PageSlots)
	if newCap == a.Capacity() {
		return nil
	}
	return a.resizeTo(newCap, nil)
}

// resizeTo rebuilds the array at newCap slots, optionally merging the
// sorted batch extra into the elements during the single redistribution
// pass (used by bulk loads whose root window overflows).
//
// The paper treats a resize as a rebalance whose window is the whole
// array: with rewiring, the destination is a set of spare physical pages
// (absorbing the existing buffer pool first) that are mapped in after a
// single copy per element; without rewiring, a fresh runtime-zeroed
// allocation pays the "acquiring new zeroed physical pages" cost that
// Fig 14's rewiring step eliminates.
func (a *Array) resizeTo(newCap int, extra []pair) error {
	oldSegs, oldB := a.numSegs, a.segSlots
	newB := a.segSlots
	if a.cfg.Sizing == SizingLogCap {
		newB = logSegSize(newCap, a.cfg.PageSlots)
	}
	newSegs := newCap / newB
	total := a.n + len(extra)
	newPages := newCap / a.cfg.PageSlots

	targets := evenTargets(newSegs, total, make([]int, newSegs))

	var err error
	if a.cfg.Rebalance == RebalanceRewired && a.cfg.Layout == LayoutClustered {
		err = a.resizeRewired(newSegs, newB, newPages, targets, extra)
	} else {
		err = a.resizeFresh(newSegs, newB, newPages, targets, extra)
	}
	if err != nil {
		return err
	}

	a.stats.Resizes++
	if newCap > oldSegs*oldB {
		a.stats.Grows++
	} else {
		a.stats.Shrinks++
	}
	a.stats.RebalancedElements += uint64(total)
	a.stats.ElementCopies += uint64(total)

	// Rebuild everything derived from the new geometry.
	a.numSegs, a.segSlots = newSegs, newB
	a.n = total
	a.cards = make([]int32, newSegs)
	for i, t := range targets {
		a.cards[i] = int32(t)
	}
	a.fen.reset(a.cards)
	a.cal = calibrator.NewTree(newSegs, a.cfg.Thresholds)
	a.rebuildIndexFromLayout()
	a.warmRebalanceScratch()
	if a.det != nil {
		a.det.Reset(newSegs)
		a.warmAdaptiveScratch()
	}
	a.publishView()
	return nil
}

// resizeRewired redistributes into acquired spare pages, reusing pooled
// physical pages (no zeroing) wherever possible. Pages that replace a
// mapped page are swapped in; a grow appends the rest directly.
func (a *Array) resizeRewired(newSegs, newB, newPages int, targets []int, extra []pair) error {
	oldPages := a.keys.NumPages()
	sparesK, err := a.keys.AcquireSpares(newPages)
	if err != nil {
		a.stats.AllocFailures++
		return err
	}
	sparesV, err := a.vals.AcquireSpares(newPages)
	if err != nil {
		for _, pg := range sparesK {
			a.keys.ReleaseSpare(pg)
		}
		a.stats.AllocFailures++
		return err
	}

	a.writeResize(newSegs, newB, targets, extra,
		func(page int) []int64 { return sparesK[page] },
		func(page int) []int64 { return sparesV[page] })

	// Append before the swaps: after a Swap the spare slices may no longer
	// be touched except as Swap arguments (the page lifecycle rmavet checks).
	swapped := min(oldPages, newPages)
	a.keys.Append(sparesK[swapped:])
	a.vals.Append(sparesV[swapped:])
	for i := 0; i < swapped; i++ {
		a.keys.Swap(i, sparesK[i])
		a.vals.Swap(i, sparesV[i])
	}
	if newPages < oldPages {
		a.keys.Truncate(newPages)
		a.vals.Truncate(newPages)
	}
	return nil
}

// resizeFresh redistributes into brand-new page spaces (runtime-zeroed),
// the standard resize of non-rewired implementations.
func (a *Array) resizeFresh(newSegs, newB, newPages int, targets []int, extra []pair) error {
	nk := vmem.New(a.cfg.PageSlots)
	nv := vmem.New(a.cfg.PageSlots)
	if a.keys.DirtyTracking() {
		// Durability survives the space swap: the replacement spaces are
		// tracked from birth, and Grow marks every new page dirty, so the
		// next checkpoint persists the array wholesale.
		nk.EnableDirtyTracking()
		nv.EnableDirtyTracking()
	}
	if err := nk.Grow(newPages); err != nil {
		a.stats.AllocFailures++
		return err
	}
	if err := nv.Grow(newPages); err != nil {
		a.stats.AllocFailures++
		return err
	}

	// The writer reads the old geometry through a.keys/a.vals, which stay
	// in place until the write completes.
	a.writeResizeInterleavedAware(newSegs, newB, targets, extra,
		func(page int) []int64 { return nk.Page(page) },
		func(page int) []int64 { return nv.Page(page) })

	a.keys, a.vals = nk, nv
	return nil
}

// writeResize streams the merged (existing ∪ extra) ordered elements into
// the clustered destination layout described by targets, reading the old
// geometry directly (one copy per element).
func (a *Array) writeResize(newSegs, newB int, targets []int, extra []pair,
	resolveK, resolveV func(page int) []int64) {

	next := a.mergedReader(extra)
	writeClusteredStream(newSegs, newB, a.cfg.PageSlots, targets, resolveK, resolveV, next)
}

// writeResizeInterleavedAware is writeResize for either layout; the
// interleaved destination spreads elements with even gaps.
func (a *Array) writeResizeInterleavedAware(newSegs, newB int, targets []int, extra []pair,
	resolveK, resolveV func(page int) []int64) {

	next := a.mergedReader(extra)
	if a.cfg.Layout == LayoutClustered {
		writeClusteredStream(newSegs, newB, a.cfg.PageSlots, targets, resolveK, resolveV, next)
		return
	}
	// Interleaved: new bitmap sized for the new capacity. Segments never
	// cross pages (newB <= PageSlots, both powers of two), so each
	// segment's destination page is resolved once.
	newCap := newSegs * newB
	bm := make([]uint64, (newCap+63)/64)
	for i, c := range targets {
		if c == 0 {
			continue
		}
		base := i * newB
		page := base / a.cfg.PageSlots
		off := base % a.cfg.PageSlots
		kpg, vpg := resolveK(page), resolveV(page)
		for j := 0; j < c; j++ {
			slot := j * newB / c
			k, v, ok := next()
			if !ok {
				panic("core: resize element count mismatch")
			}
			kpg[off+slot] = k
			vpg[off+slot] = v
			bm[(base+slot)>>6] |= 1 << (uint(base+slot) & 63)
		}
	}
	a.bitmap = bm
}

// writeClusteredStream writes elements from next into the clustered
// layout (alternating packing) defined by targets.
func writeClusteredStream(newSegs, newB, pageSlots int, targets []int,
	resolveK, resolveV func(page int) []int64, next func() (int64, int64, bool)) {

	shift := uint(log2(pageSlots))
	for i, c := range targets {
		if c == 0 {
			continue
		}
		var rl int
		if i&1 == 0 {
			rl = newB - c
		}
		slot := i*newB + rl
		page := slot >> shift
		off := slot & (pageSlots - 1)
		kpg := resolveK(page)
		vpg := resolveV(page)
		for j := 0; j < c; j++ {
			k, v, ok := next()
			if !ok {
				panic("core: resize element count mismatch")
			}
			kpg[off+j] = k
			vpg[off+j] = v
		}
	}
}

// mergedReader returns a stream over the union of the array's current
// elements (old geometry) and the sorted extra batch, in key order.
//
// On the clustered layout it caches the current segment's run slices; on
// the interleaved one it advances a slot cursor word-parallel through
// the bitmap with the current page's slices cached — O(1) amortized per
// element. (An earlier version called elemKey/elemVal per element, each
// an O(B) rescan from the segment base: O(B²) per segment on every
// resize. Stats.SlotScans pins the linear walk.)
func (a *Array) mergedReader(extra []pair) func() (int64, int64, bool) {
	var advance func() (int64, int64, bool)
	if a.cfg.Layout == LayoutClustered {
		seg, rank := 0, 0
		var runK, runV []int64
		advance = func() (int64, int64, bool) {
			for seg < a.numSegs {
				if rank < int(a.cards[seg]) {
					if runK == nil {
						kpg, off := a.segPage(a.keys, seg)
						vpg, voff := a.segPage(a.vals, seg)
						rl, rh := a.runBounds(seg)
						runK, runV = kpg[off+rl:off+rh], vpg[voff+rl:voff+rh]
					}
					k, v := runK[rank], runV[rank]
					rank++
					return k, v, true
				}
				seg++
				rank = 0
				runK, runV = nil, nil
			}
			return 0, 0, false
		}
	} else {
		end := a.Capacity()
		mask := a.cfg.PageSlots - 1
		cursor := 0
		var kpg, vpg []int64
		page := -1
		advance = func() (int64, int64, bool) {
			s := bmNext(a.bitmap, cursor, end)
			if s < 0 {
				return 0, 0, false
			}
			if p := s >> a.pageShift; p != page {
				page = p
				kpg, vpg = a.keys.Page(p), a.vals.Page(p)
			}
			a.stats.SlotScans += uint64(s + 1 - cursor)
			cursor = s + 1
			return kpg[s&mask], vpg[s&mask], true
		}
	}
	curK, curV, curOK := advance()
	ei := 0
	return func() (int64, int64, bool) {
		if curOK && (ei >= len(extra) || curK <= extra[ei].k) {
			k, v := curK, curV
			curK, curV, curOK = advance()
			return k, v, true
		}
		if ei < len(extra) {
			p := extra[ei]
			ei++
			return p.k, p.v, true
		}
		return 0, 0, false
	}
}

// elemVal returns the rank-th value of segment seg (mirror of elemKey).
func (a *Array) elemVal(seg, rank int) int64 {
	switch a.cfg.Layout {
	case LayoutClustered:
		pg, off := a.segPage(a.vals, seg)
		lo, _ := a.runBounds(seg)
		return pg[off+lo+rank]
	default:
		base := seg * a.segSlots
		s := bmSelect(a.bitmap, base, base+a.segSlots, rank)
		if s < 0 {
			panic("core: elemVal rank out of range")
		}
		pg, off := a.pageAt(a.vals, s)
		return pg[off]
	}
}

// rebuildIndexFromLayout recomputes every separator from the stored
// elements and rebuilds the index structure for the current geometry.
func (a *Array) rebuildIndexFromLayout() {
	mins := make([]int64, a.numSegs)
	carry := unsetSep
	for j := a.numSegs - 1; j >= 0; j-- {
		if a.cards[j] > 0 {
			carry = a.segMin(j)
		}
		mins[j] = carry
	}
	a.buildIndex(mins)
}

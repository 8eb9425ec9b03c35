package core

// span is a contiguous (keys, values) chunk; rebalances move elements as
// block copies between source and destination spans wherever the layout
// is dense.
type span struct{ k, v []int64 }

// rebalance redistributes the elements of segments [lo, hi) (a calibrator
// window at the given level) according to the active policy: evenly, or
// following the adaptive algorithm when the Detector marks hammered
// intervals (Section IV).
func (a *Array) rebalance(lo, hi, level int) error {
	cnt := a.windowCard(lo, hi)
	return a.rebalanceTargets(lo, hi, a.computeTargets(lo, hi, cnt), cnt)
}

// rebalanceLocal is the deferred-mode writer's minimal make-room: an
// unconditional even spread of the window. Unlike the policy rebalance
// it never consults the adaptive detector — an adaptive allocation may
// leave the insert's own segment full (gaps go where the detector
// predicts the frontier), which would send the insert's retry loop
// straight back here forever. An even spread of a window with physical
// room provably leaves every segment at least one free slot, so the
// pending insert always completes.
func (a *Array) rebalanceLocal(lo, hi int) error {
	nseg := hi - lo
	cnt := a.windowCard(lo, hi)
	return a.rebalanceTargets(lo, hi, evenTargets(nseg, cnt, a.targetsScratch(nseg)), cnt)
}

// rebalanceTargets physically applies a rebalance with the given target
// cardinalities, maintaining counters and separators.
func (a *Array) rebalanceTargets(lo, hi int, targets []int, cnt int) error {
	nseg := hi - lo
	a.stats.Rebalances++
	a.stats.RebalancedSegments += uint64(nseg)
	a.stats.RebalancedElements += uint64(cnt)
	if nseg > a.stats.MaxWindowSegments {
		a.stats.MaxWindowSegments = nseg
	}
	if err := a.redistribute(lo, hi, targets, cnt); err != nil {
		return err
	}
	a.refreshSeparators(lo, hi)
	return nil
}

// computeTargets returns the per-segment cardinalities the rebalance
// should produce: an even spread, or the adaptive allocation when the
// policy is on and the Detector produced marks.
func (a *Array) computeTargets(lo, hi, cnt int) []int {
	nseg := hi - lo
	// Adaptive allocation assumes power-of-two windows (the recursive
	// halving of Algorithm 2); clipped windows at the end of a
	// non-power-of-two array rebalance evenly.
	if a.cfg.Adaptive != AdaptiveOff && a.det != nil && nseg&(nseg-1) == 0 {
		marks := a.det.Marks(lo, hi)
		if len(marks) > 0 {
			var t []int
			if a.cfg.Adaptive == AdaptiveAPMA {
				t = a.apmaTargets(lo, hi, cnt, marks)
			} else {
				iv := a.marksToIntervals(lo, hi, marks)
				if len(iv) > 0 {
					t = a.adaptiveTargets(lo, hi, cnt, iv)
				}
			}
			if t != nil {
				a.stats.AdaptiveRebalances++
				return t
			}
		}
	}
	return evenTargets(nseg, cnt, a.targetsScratch(nseg))
}

// targetsScratch returns a reusable int slice of the given length,
// growing the persistent buffer only when a wider window appears. The
// steady-state rebalance path must not allocate (see PERFORMANCE.md and
// TestInsertRebalanceAllocationFree).
func (a *Array) targetsScratch(n int) []int {
	if cap(a.targetsBuf) < n {
		a.targetsBuf = make([]int, n) //rma:alloc-ok — scratch grows to the widest window seen
	}
	a.targetsBuf = a.targetsBuf[:n]
	return a.targetsBuf
}

// evenTargets spreads cnt elements over nseg segments as evenly as
// possible (Fig 2b).
func evenTargets(nseg, cnt int, out []int) []int {
	base := cnt / nseg
	rem := cnt % nseg
	for i := 0; i < nseg; i++ {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

// redistribute physically rearranges the window's elements to match the
// target cardinalities, choosing the rewired single-copy path for
// page-sized clustered windows and the classic two-pass path otherwise
// (Section III "Rebalancing").
func (a *Array) redistribute(lo, hi int, targets []int, cnt int) error {
	windowSlots := (hi - lo) * a.segSlots
	if a.cfg.Rebalance == RebalanceRewired &&
		a.cfg.Layout == LayoutClustered &&
		windowSlots >= a.cfg.PageSlots {
		return a.redistributeRewired(lo, hi, targets, cnt)
	}
	a.redistributeTwoPass(lo, hi, targets, cnt)
	return nil
}

// redistributeTwoPass gathers the window into scratch storage and writes
// it back: two copies per element.
func (a *Array) redistributeTwoPass(lo, hi int, targets []int, cnt int) {
	a.gatherWindow(lo, hi, cnt)
	a.stats.ElementCopies += uint64(cnt)
	if a.cfg.Layout == LayoutClustered {
		dst := a.destSpans(lo, targets, nil, nil, 0)
		a.srcSpans = append(a.srcSpans[:0], span{k: a.scratchK[:cnt], v: a.scratchV[:cnt]}) //rma:cap-ok — srcSpans capacity is retained across calls
		copySpans(dst, a.srcSpans)
	} else {
		a.writeInterleaved(lo, targets, cnt)
	}
	a.stats.ElementCopies += uint64(cnt)
	a.applyCards(lo, targets)
}

// redistributeRewired writes each element once into spare physical pages
// and swaps them in (Fig 6). The window is page-aligned because windows
// are power-of-two segment ranges of at least a page.
func (a *Array) redistributeRewired(lo, hi int, targets []int, cnt int) error {
	page0 := lo * a.segSlots >> a.pageShift
	npages := (hi - lo) * a.segSlots / a.cfg.PageSlots

	sparesK, err := a.keys.AcquireSpares(npages)
	if err != nil {
		a.stats.AllocFailures++
		return err
	}
	sparesV, err := a.vals.AcquireSpares(npages)
	if err != nil {
		for _, pg := range sparesK {
			a.keys.ReleaseSpare(pg)
		}
		a.stats.AllocFailures++
		return err
	}

	src := a.sourceSpans(lo, hi)
	dst := a.destSpans(lo, targets, sparesK, sparesV, page0)
	copySpans(dst, src)
	a.stats.ElementCopies += uint64(cnt)

	for i := 0; i < npages; i++ {
		a.keys.Swap(page0+i, sparesK[i])
		a.vals.Swap(page0+i, sparesV[i])
	}

	a.applyCards(lo, targets)
	return nil
}

// gatherWindow copies the window's elements, in key order, into the
// scratch buffers.
func (a *Array) gatherWindow(lo, hi, cnt int) {
	a.ensureScratch(cnt)
	if a.cfg.Layout == LayoutClustered {
		pos := 0
		for _, s := range a.sourceSpans(lo, hi) {
			copy(a.scratchK[pos:], s.k)
			copy(a.scratchV[pos:], s.v)
			pos += len(s.k)
		}
		return
	}
	pos := 0
	end := hi * a.segSlots
	mask := a.cfg.PageSlots - 1
	s := bmNext(a.bitmap, lo*a.segSlots, end)
	for s != -1 {
		page := s >> a.pageShift
		kpg, vpg := a.keys.Page(page), a.vals.Page(page)
		pageEnd := (page + 1) << a.pageShift
		for s != -1 && s < pageEnd {
			a.scratchK[pos] = kpg[s&mask]
			a.scratchV[pos] = vpg[s&mask]
			pos++
			s = bmNext(a.bitmap, s+1, end)
		}
	}
}

func (a *Array) ensureScratch(n int) {
	if cap(a.scratchK) < n {
		a.scratchK = make([]int64, n) //rma:alloc-ok — scratch grows to the widest window seen
		a.scratchV = make([]int64, n) //rma:alloc-ok — scratch grows to the widest window seen
	}
	a.scratchK = a.scratchK[:n]
	a.scratchV = a.scratchV[:n]
}

// sourceSpans returns the window's current element runs in key order
// (clustered layout only): one run per segment, merging is not needed
// because segments are already ordered. The returned slice aliases the
// persistent scratch and is valid until the next sourceSpans call.
func (a *Array) sourceSpans(lo, hi int) []span {
	spans := a.srcSpans[:0]
	for s := lo; s < hi; s++ {
		c := int(a.cards[s])
		if c == 0 {
			continue
		}
		kpg, off := a.segPage(a.keys, s)
		vpg, voff := a.segPage(a.vals, s)
		rl, rh := a.runBounds(s)
		spans = append(spans, span{k: kpg[off+rl : off+rh], v: vpg[voff+rl : voff+rh]}) //rma:cap-ok — srcSpans capacity is retained across calls
	}
	a.srcSpans = spans
	return spans
}

// destSpans returns the destination runs for the given targets in the
// clustered layout. With sparesK/sparesV nil the spans point into the
// live pages (two-pass write-back); otherwise they point into the spare
// pages, indexed relative to page0 (rewired path). The returned slice
// aliases the persistent scratch and is valid until the next call.
func (a *Array) destSpans(lo int, targets []int, sparesK, sparesV [][]int64, page0 int) []span {
	spans := a.dstSpans[:0]
	for i, c := range targets {
		if c == 0 {
			continue
		}
		seg := lo + i
		var rl int
		if seg&1 == 0 {
			rl = a.segSlots - c
		}
		slot := seg*a.segSlots + rl
		page := slot >> a.pageShift
		off := slot & (a.cfg.PageSlots - 1)
		var kpg, vpg []int64
		if sparesK == nil {
			kpg, vpg = a.keys.Page(page), a.vals.Page(page)
		} else {
			kpg, vpg = sparesK[page-page0], sparesV[page-page0]
		}
		spans = append(spans, span{k: kpg[off : off+c], v: vpg[off : off+c]}) //rma:cap-ok — dstSpans capacity is retained across calls
	}
	a.dstSpans = spans
	return spans
}

// copySpans streams the source spans into the destination spans with
// block copies; total lengths must match.
func copySpans(dst, src []span) {
	di, si := 0, 0
	var d, s span
	for {
		if len(d.k) == 0 {
			if di == len(dst) {
				return
			}
			d = dst[di]
			di++
		}
		if len(s.k) == 0 {
			if si == len(src) {
				return
			}
			s = src[si]
			si++
		}
		m := len(d.k)
		if len(s.k) < m {
			m = len(s.k)
		}
		copy(d.k[:m], s.k[:m])
		copy(d.v[:m], s.v[:m])
		d.k, d.v = d.k[m:], d.v[m:]
		s.k, s.v = s.k[m:], s.v[m:]
	}
}

// writeInterleaved spreads cnt scratch elements back over segments
// [lo, lo+len(targets)) with evenly strided gaps inside each segment
// (the classic PMA layout after a rebalance).
func (a *Array) writeInterleaved(lo int, targets []int, cnt int) {
	// Clear the window's occupancy bits word-wise.
	bmClearRange(a.bitmap, lo*a.segSlots, (lo+len(targets))*a.segSlots)
	pos := 0
	for i, c := range targets {
		if c == 0 {
			continue
		}
		seg := lo + i
		base := seg * a.segSlots
		kpg, off := a.segPage(a.keys, seg)
		vpg, voff := a.segPage(a.vals, seg)
		for j := 0; j < c; j++ {
			slot := j * a.segSlots / c
			kpg[off+slot] = a.scratchK[pos]
			vpg[voff+slot] = a.scratchV[pos]
			a.setOccupied(base+slot, true)
			pos++
		}
	}
}

// refreshSeparators recomputes the separators of segments [lo, hi) after
// a rebalance, carrying the nearest non-empty minimum right-to-left into
// empty segments, and propagates into the empty chain left of lo.
func (a *Array) refreshSeparators(lo, hi int) {
	carry := unsetSep
	if hi < a.numSegs {
		carry = a.ix.Key(hi)
	}
	for j := hi - 1; j >= lo; j-- {
		if a.cards[j] > 0 {
			carry = a.segMin(j)
		}
		if j >= 1 {
			a.ix.Update(j, carry)
		}
	}
	for j := lo - 1; j >= 1 && a.cards[j] == 0; j-- {
		a.ix.Update(j, carry)
	}
}

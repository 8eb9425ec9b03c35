package core

import "sort"

// Batch is a set of key/value pairs for bulk loading. Elements need not
// be sorted; the loaders sort a private copy, as the paper assumes
// batches are sorted before loading.
type Batch struct {
	Keys []int64
	Vals []int64
}

// Len returns the batch size.
func (b Batch) Len() int { return len(b.Keys) }

// sortedPairs copies the batch into a sorted []pair.
func (b Batch) sortedPairs() []pair {
	ps := make([]pair, len(b.Keys))
	for i := range b.Keys {
		ps[i] = pair{k: b.Keys[i], v: b.Vals[i]}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].k < ps[j].k })
	return ps
}

// BulkLoad inserts the batch with the paper's bottom-up algorithm
// (Section III "Bulk loading"): pass 1 assigns each element to its target
// segment and accumulates the final cardinalities; pass 2 walks the
// touched segments and finds the minimal set of windows whose thresholds
// require a rebalance; pass 3 merges the batch into untouched segments
// directly and rebalances the marked windows once, merging as it spreads.
//
// Deletions in the same batch are supported through BulkUpdate.
func (a *Array) BulkLoad(b Batch) error {
	if len(b.Keys) != len(b.Vals) {
		panic("core: BulkLoad with mismatched key/value lengths")
	}
	if b.Len() == 0 {
		return nil
	}
	a.stats.BulkLoads++
	return a.bulkInsert(b.sortedPairs())
}

func (a *Array) bulkInsert(ps []pair) error {
	// Pass 1: count incoming elements per segment against the current
	// separators. The batch is sorted, so target segments are found with
	// a forward-moving index probe.
	incoming := make([]int32, a.numSegs)
	seg := 0
	for i := range ps {
		if i == 0 || ps[i].k != ps[i-1].k {
			seg = a.ix.FindUB(ps[i].k)
		}
		incoming[seg]++
	}

	// Root check: if the whole array cannot absorb the batch within the
	// root threshold, resize once, merging during the redistribution.
	_, tauRoot := a.cal.At(a.cal.Height())
	if float64(a.n+len(ps)) > tauRoot*float64(a.Capacity()) {
		newCap := a.cal.GrowCapacity(a.Capacity(), a.n+len(ps), a.cfg.PageSlots)
		for float64(a.n+len(ps)) > tauRoot*float64(newCap) {
			newCap *= 2
		}
		return a.resizeTo(newCap, ps)
	}

	// Pass 2: find the windows to rebalance. For every overflowing
	// segment, walk up the calibrator tree until the window (with its
	// incoming load) satisfies the level threshold.
	type window struct{ lo, hi int }
	var windows []window
	for s := 0; s < a.numSegs; s++ {
		if int(a.cards[s])+int(incoming[s]) <= a.segSlots {
			continue
		}
		if len(windows) > 0 && s < windows[len(windows)-1].hi {
			continue // already covered
		}
		found := false
		for l := 2; l <= a.cal.Height(); l++ {
			lo, hi := a.cal.Window(s, l)
			_, tau := a.cal.At(l)
			capW := (hi - lo) * a.segSlots
			load := a.windowCard(lo, hi)
			for t := lo; t < hi; t++ {
				load += int(incoming[t])
			}
			if float64(load) <= tau*float64(capW) && load <= capW {
				// Merge with a preceding overlapping window.
				for len(windows) > 0 && windows[len(windows)-1].hi > lo {
					prev := windows[len(windows)-1]
					windows = windows[:len(windows)-1]
					if prev.lo < lo {
						lo = prev.lo
					}
				}
				windows = append(windows, window{lo, hi})
				found = true
				break
			}
		}
		if !found {
			// The root itself qualifies (checked above), so this can
			// only happen via rounding; fall back to a full resize-merge.
			newCap := a.cal.GrowCapacity(a.Capacity(), a.n+len(ps), a.cfg.PageSlots)
			return a.resizeTo(newCap, ps)
		}
	}

	// Pass 3: apply, walking batch and segments left to right.
	bi := 0
	wi := 0
	for s := 0; s < a.numSegs; {
		if wi < len(windows) && windows[wi].lo == s {
			w := windows[wi]
			wi++
			// Slice the batch run destined for [w.lo, w.hi).
			cnt := 0
			for t := w.lo; t < w.hi; t++ {
				cnt += int(incoming[t])
			}
			if err := a.rebalanceMerge(w.lo, w.hi, ps[bi:bi+cnt]); err != nil {
				return err
			}
			bi += cnt
			s = w.hi
			continue
		}
		if c := int(incoming[s]); c > 0 {
			a.mergeIntoSegment(s, ps[bi:bi+c])
			bi += c
		}
		s++
	}
	return nil
}

// mergeIntoSegment merges the sorted run into segment seg, which has
// room. The segment is rewritten once via the scratch buffers.
func (a *Array) mergeIntoSegment(seg int, run []pair) {
	oldC := int(a.cards[seg])
	newC := oldC + len(run)

	if a.cfg.Layout == LayoutClustered {
		a.ensureScratch(newC)
		kpg, off := a.segPage(a.keys, seg)
		vpg, voff := a.segPage(a.vals, seg)
		rl, rh := a.runBounds(seg)
		runK := kpg[off+rl : off+rh]
		runV := vpg[voff+rl : voff+rh]
		// Two-finger merge into scratch.
		i, j, o := 0, 0, 0
		for i < oldC && j < len(run) {
			if runK[i] <= run[j].k {
				a.scratchK[o], a.scratchV[o] = runK[i], runV[i]
				i++
			} else {
				a.scratchK[o], a.scratchV[o] = run[j].k, run[j].v
				j++
			}
			o++
		}
		for ; i < oldC; i, o = i+1, o+1 {
			a.scratchK[o], a.scratchV[o] = runK[i], runV[i]
		}
		for ; j < len(run); j, o = j+1, o+1 {
			a.scratchK[o], a.scratchV[o] = run[j].k, run[j].v
		}
		// Write back with the segment's packing parity.
		a.cardAdd(seg, int32(newC-oldC))
		nl, nh := a.runBounds(seg)
		copy(kpg[off+nl:off+nh], a.scratchK[:newC])
		copy(vpg[voff+nl:voff+nh], a.scratchV[:newC])
		a.stats.ElementCopies += uint64(2 * newC)
	} else {
		// Interleaved: gather, merge, respread within the segment, all
		// through the segment's page slices and word-parallel occupancy.
		a.ensureScratch(newC)
		base := seg * a.segSlots
		end := base + a.segSlots
		kpg, off := a.segPage(a.keys, seg)
		vpg, voff := a.segPage(a.vals, seg)
		o := 0
		j := 0
		for s := bmNext(a.bitmap, base, end); s != -1; s = bmNext(a.bitmap, s+1, end) {
			k, v := kpg[off+s-base], vpg[voff+s-base]
			for j < len(run) && run[j].k < k {
				a.scratchK[o], a.scratchV[o] = run[j].k, run[j].v
				j++
				o++
			}
			a.scratchK[o], a.scratchV[o] = k, v
			o++
		}
		for ; j < len(run); j, o = j+1, o+1 {
			a.scratchK[o], a.scratchV[o] = run[j].k, run[j].v
		}
		bmClearRange(a.bitmap, base, end)
		a.cardAdd(seg, int32(newC-oldC))
		for x := 0; x < newC; x++ {
			slot := x * a.segSlots / newC
			kpg[off+slot] = a.scratchK[x]
			vpg[voff+slot] = a.scratchV[x]
			a.setOccupied(base+slot, true)
		}
		a.stats.ElementCopies += uint64(2 * newC)
	}
	a.n += len(run)
	if seg == 0 || len(run) == 0 {
		a.refreshSepAt(seg)
		return
	}
	a.refreshSepAt(seg)
}

// refreshSepAt re-derives segment seg's separator after a content change.
func (a *Array) refreshSepAt(seg int) {
	if a.cards[seg] > 0 {
		a.setSegMin(seg, a.segMin(seg))
	} else {
		a.clearSegMin(seg)
	}
}

// rebalanceMerge rebalances window [lo, hi) while merging the sorted
// batch run into it (one redistribution for the whole batch share).
func (a *Array) rebalanceMerge(lo, hi int, run []pair) error {
	cnt := a.windowCard(lo, hi) + len(run)
	nseg := hi - lo
	a.stats.Rebalances++
	a.stats.RebalancedSegments += uint64(nseg)
	a.stats.RebalancedElements += uint64(cnt)

	targets := evenTargets(nseg, cnt, a.targetsScratch(nseg))

	windowSlots := nseg * a.segSlots
	useRewire := a.cfg.Rebalance == RebalanceRewired &&
		a.cfg.Layout == LayoutClustered &&
		windowSlots >= a.cfg.PageSlots

	var next func() (int64, int64, bool)
	if a.cfg.Layout == LayoutClustered {
		next = a.mergedWindowReader(lo, hi, run)
	} else {
		next = a.mergedWindowReaderInterleaved(lo, hi, run)
	}

	if useRewire {
		page0 := lo * a.segSlots >> a.pageShift
		npages := windowSlots / a.cfg.PageSlots
		sparesK, err := a.keys.AcquireSpares(npages)
		if err != nil {
			return err
		}
		sparesV, err := a.vals.AcquireSpares(npages)
		if err != nil {
			for _, pg := range sparesK {
				a.keys.ReleaseSpare(pg)
			}
			return err
		}
		a.writeWindowStream(lo, targets, sparesK, sparesV, page0, next)
		for i := 0; i < npages; i++ {
			a.keys.Swap(page0+i, sparesK[i])
			a.vals.Swap(page0+i, sparesV[i])
		}
		a.stats.ElementCopies += uint64(cnt)
	} else {
		// Gather the merged stream into scratch, then write back.
		a.ensureScratch(cnt)
		for o := 0; ; o++ {
			k, v, ok := next()
			if !ok {
				break
			}
			a.scratchK[o], a.scratchV[o] = k, v
		}
		if a.cfg.Layout == LayoutClustered {
			sk, sv := a.scratchK[:cnt], a.scratchV[:cnt]
			a.applyCards(lo, targets)
			dst := a.destSpans(lo, targets, nil, nil, 0)
			a.srcSpans = append(a.srcSpans[:0], span{k: sk, v: sv})
			copySpans(dst, a.srcSpans)
		} else {
			a.writeInterleaved(lo, targets, cnt)
		}
		a.stats.ElementCopies += uint64(2 * cnt)
	}
	a.applyCards(lo, targets)
	a.n += len(run)
	a.refreshSeparators(lo, hi)
	return nil
}

// mergedWindowReader streams the union of window [lo, hi)'s elements and
// the sorted run, in key order, reading the old geometry.
func (a *Array) mergedWindowReader(lo, hi int, run []pair) func() (int64, int64, bool) {
	seg, rank := lo, 0
	var runK, runV []int64
	loadSeg := func() bool {
		for seg < hi {
			if int(a.cards[seg]) > 0 && rank < int(a.cards[seg]) {
				if runK == nil {
					if a.cfg.Layout == LayoutClustered {
						kpg, off := a.segPage(a.keys, seg)
						vpg, voff := a.segPage(a.vals, seg)
						rl, rh := a.runBounds(seg)
						runK, runV = kpg[off+rl:off+rh], vpg[voff+rl:voff+rh]
					} else {
						// Interleaved windows are gathered via scratch
						// in the caller; this reader is clustered-only.
						panic("core: mergedWindowReader on interleaved layout")
					}
				}
				return true
			}
			seg++
			rank = 0
			runK, runV = nil, nil
		}
		return false
	}
	ri := 0
	return func() (int64, int64, bool) {
		haveSeg := a.cfg.Layout == LayoutClustered && loadSeg()
		if haveSeg && (ri >= len(run) || runK[rank] <= run[ri].k) {
			k, v := runK[rank], runV[rank]
			rank++
			return k, v, true
		}
		if ri < len(run) {
			p := run[ri]
			ri++
			return p.k, p.v, true
		}
		return 0, 0, false
	}
}

// mergedWindowReaderInterleaved is mergedWindowReader for the interleaved
// layout, advancing word-parallel through the bitmap with the current
// page's slices cached — O(1) amortized per element, never a rescan.
func (a *Array) mergedWindowReaderInterleaved(lo, hi int, run []pair) func() (int64, int64, bool) {
	end := hi * a.segSlots
	mask := a.cfg.PageSlots - 1
	cursor := lo * a.segSlots
	next := bmNext(a.bitmap, cursor, end)
	var kpg, vpg []int64
	page := -1
	ri := 0
	return func() (int64, int64, bool) {
		if next >= 0 {
			if p := next >> a.pageShift; p != page {
				page = p
				kpg, vpg = a.keys.Page(p), a.vals.Page(p)
			}
			if ri >= len(run) || kpg[next&mask] <= run[ri].k {
				k, v := kpg[next&mask], vpg[next&mask]
				a.stats.SlotScans += uint64(next + 1 - cursor)
				cursor = next + 1
				next = bmNext(a.bitmap, cursor, end)
				return k, v, true
			}
		}
		if ri < len(run) {
			p := run[ri]
			ri++
			return p.k, p.v, true
		}
		return 0, 0, false
	}
}

// writeWindowStream writes the stream into segments [lo, lo+len(targets))
// with the clustered layout, into the spare pages indexed relative to
// page0 (closure-free, like destSpans' rewired path).
func (a *Array) writeWindowStream(lo int, targets []int,
	sparesK, sparesV [][]int64, page0 int, next func() (int64, int64, bool)) {

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
		kpg := sparesK[page-page0]
		vpg := sparesV[page-page0]
		for j := 0; j < c; j++ {
			k, v, ok := next()
			if !ok {
				panic("core: window stream count mismatch")
			}
			kpg[off+j] = k
			vpg[off+j] = v
		}
	}
}

// BulkUpdate applies a batch of deletions followed by a batch of
// insertions, the streaming pattern of Section III: deletions first with
// rebalances disabled, then the bottom-up insert load.
func (a *Array) BulkUpdate(inserts Batch, deleteKeys []int64) error {
	if len(inserts.Keys) != len(inserts.Vals) {
		panic("core: BulkUpdate with mismatched key/value lengths")
	}
	a.stats.BulkLoads++
	// Deletions with rebalances disabled: plain segment removals.
	for _, k := range deleteKeys {
		seg := a.ix.FindUB(k)
		var rank int
		if a.cfg.Layout == LayoutClustered {
			rank = a.deleteClustered(seg, k)
		} else {
			rank = a.deleteInterleaved(seg, k)
		}
		if rank < 0 {
			continue
		}
		a.n--
		a.stats.Deletes++
		if a.cards[seg] == 0 {
			a.clearSegMin(seg)
		} else if rank == 0 {
			a.setSegMin(seg, a.elemKey(seg, 0))
		}
	}
	if inserts.Len() == 0 {
		return nil
	}
	return a.bulkInsert(inserts.sortedPairs())
}

// BulkLoadTopDown is the top-down scheme of Durand et al. (DRF12),
// implemented as the comparison baseline for Fig 13b: the calibrator tree
// is traversed root-to-leaves, recursively propagating the input sequence
// to the children, rebalancing wherever a node's thresholds fail. Its
// drawback, which the bottom-up scheme fixes, is that thresholds near the
// top are tighter, causing rebalances wider than necessary.
func (a *Array) BulkLoadTopDown(b Batch) error {
	if len(b.Keys) != len(b.Vals) {
		panic("core: BulkLoadTopDown with mismatched key/value lengths")
	}
	if b.Len() == 0 {
		return nil
	}
	a.stats.BulkLoads++
	ps := b.sortedPairs()

	_, tauRoot := a.cal.At(a.cal.Height())
	if float64(a.n+len(ps)) > tauRoot*float64(a.Capacity()) {
		newCap := a.cal.GrowCapacity(a.Capacity(), a.n+len(ps), a.cfg.PageSlots)
		for float64(a.n+len(ps)) > tauRoot*float64(newCap) {
			newCap *= 2
		}
		return a.resizeTo(newCap, ps)
	}
	return a.topDown(a.cal.Height(), 0, a.numSegs, ps)
}

// topDown distributes run into the node [lo, hi) at the given calibrator
// level. Invariant (guaranteed by the caller): the node's existing
// elements plus run fit within the node's own upper threshold, hence
// within its capacity.
func (a *Array) topDown(level, lo, hi int, run []pair) error {
	if len(run) == 0 {
		return nil
	}
	if level == 1 {
		// The caller's threshold check (tau1 <= 1) guarantees the merge
		// fits the segment.
		a.mergeIntoSegment(lo, run)
		return nil
	}
	mid := (lo + hi) / 2
	// Split the run at the right child's first separator.
	sep := a.ix.Key(mid)
	cut := sort.Search(len(run), func(i int) bool { return run[i].k >= sep })

	halves := []struct {
		lo, hi int
		run    []pair
	}{{lo, mid, run[:cut]}, {mid, hi, run[cut:]}}

	// If either child cannot absorb its share even fully packed, this
	// node rebalances, merging its whole input sequence (the DRF12
	// behaviour: "trigger a rebalance, merging the input sequence with
	// the existing elements in the current window"). This check runs
	// before touching either half so no partial merge is left behind.
	capHalf := (mid - lo) * a.segSlots
	for _, h := range halves {
		if a.windowCard(h.lo, h.hi)+len(h.run) > capHalf {
			return a.rebalanceMerge(lo, hi, run)
		}
	}

	_, tau := a.cal.At(level - 1)
	for _, h := range halves {
		if len(h.run) == 0 {
			continue
		}
		load := a.windowCard(h.lo, h.hi) + len(h.run)
		if float64(load) > tau*float64(capHalf) {
			// The child's threshold fails: rebalance the child window as
			// a whole. This is where the top-down scheme pays its extra
			// cost — thresholds tighten toward the root, so rebalances
			// trigger on windows wider than strictly necessary.
			if err := a.rebalanceMerge(h.lo, h.hi, h.run); err != nil {
				return err
			}
			continue
		}
		if err := a.topDown(level-1, h.lo, h.hi, h.run); err != nil {
			return err
		}
	}
	return nil
}

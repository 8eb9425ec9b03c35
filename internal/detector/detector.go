// Package detector implements the Detector of the RMA's adaptive
// rebalancing (Section IV, Fig 8, Algorithm 1): per-segment metadata that
// identifies hammered regions of the array and predicts where the next
// updates will land.
//
// Per segment it keeps:
//   - a fixed-length queue of the timestamps of the most recent updates;
//   - two predicted keys k_bwd and k_fwd with saturating counters, which
//     recognize descending and ascending sequential insertion runs; and
//   - a signed counter sc, incremented on inserts and decremented on
//     deletes, which decides whether a hammered segment should attract
//     gaps (insert hammering, score +1) or elements (delete hammering,
//     score -1).
//
// Timestamps are logical: the caller passes a monotonically increasing
// operation counter. The paper reads the CPU timestamp counter, but only
// order and recency percentiles are ever used, so a logical clock
// preserves the algorithm and keeps tests deterministic.
package detector

import (
	"fmt"
	"math"
	"slices"
)

// Config holds the Detector tuning knobs.
type Config struct {
	// QueueLen is the per-segment timestamp queue capacity.
	QueueLen int
	// SC is the saturation cap of the k_bwd/k_fwd counters and of |sc|.
	SC int
	// ThetaSC is the counter threshold above which a pair-granular marked
	// interval is emitted instead of a whole-segment one, and the minimum
	// |sc| for a segment to be marked at all.
	ThetaSC int
	// Alpha is the timestamp percentile of the preprocessing phase
	// (paper: 0.999).
	Alpha float64
	// Phi is the fraction of a segment's timestamps that must exceed the
	// percentile for the segment to be marked (paper: 0.75).
	Phi float64
}

// DefaultConfig returns the default tuning: the paper's Alpha and Phi,
// an 8-entry timestamp queue, counters saturating at 8, and ThetaSC 3.
func DefaultConfig() Config {
	return Config{QueueLen: 8, SC: 8, ThetaSC: 3, Alpha: 0.999, Phi: 0.75}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.QueueLen <= 0 || c.SC <= 0 || c.ThetaSC <= 0 || c.ThetaSC > c.SC {
		return fmt.Errorf("detector: invalid queue/counter config %+v", c)
	}
	if c.Alpha <= 0 || c.Alpha >= 1 || c.Phi <= 0 || c.Phi > 1 {
		return fmt.Errorf("detector: alpha/phi out of range %+v", c)
	}
	return nil
}

// MarkKind discriminates the granularity of a marked interval.
type MarkKind int

const (
	// MarkSegment marks the whole content of the segment.
	MarkSegment MarkKind = iota
	// MarkPairBwd marks the pair (predecessor(Key), Key): an ascending
	// run is approaching Key from below.
	MarkPairBwd
	// MarkPairFwd marks the pair (Key, successor(Key)): a descending run
	// is approaching Key from above.
	MarkPairFwd
)

// Mark is one marked segment produced by the preprocessing phase.
type Mark struct {
	Seg   int
	Kind  MarkKind
	Key   int64 // predicted frontier key for pair-granular marks
	Score int   // +1 insert hammering, -1 delete hammering
}

// Detector holds the metadata for every segment of the array.
type Detector struct {
	cfg Config

	// Ring buffers, QueueLen entries per segment.
	ts     []uint64
	head   []uint16
	count  []uint16
	bwdVal []int64
	bwdCnt []int16
	fwdVal []int64
	fwdCnt []int16
	sc     []int16

	scratch  []uint64 // reused by Marks
	marksBuf []Mark   // reused by Marks; the rebalance path must not allocate
}

// New returns a Detector for numSegs segments.
func New(numSegs int, cfg Config) *Detector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	d := &Detector{cfg: cfg}
	d.Reset(numSegs)
	return d
}

// Config returns the active configuration.
func (d *Detector) Config() Config { return d.cfg }

// Reset re-dimensions the detector for numSegs segments, clearing all
// metadata. Called when the array is resized, since segment identities
// change wholesale. The Marks scratch buffers are pre-sized to their
// worst case here, so mark processing never allocates between resizes
// (see PERFORMANCE.md and TestAdaptiveInsertAllocationFree).
func (d *Detector) Reset(numSegs int) {
	q := d.cfg.QueueLen
	d.ts = make([]uint64, numSegs*q)
	d.head = make([]uint16, numSegs)
	d.count = make([]uint16, numSegs)
	d.bwdVal = make([]int64, numSegs)
	d.bwdCnt = make([]int16, numSegs)
	d.fwdVal = make([]int64, numSegs)
	d.fwdCnt = make([]int16, numSegs)
	d.sc = make([]int16, numSegs)
	if cap(d.scratch) < numSegs*q {
		d.scratch = make([]uint64, 0, numSegs*q)
	}
	if cap(d.marksBuf) < numSegs {
		d.marksBuf = make([]Mark, 0, numSegs)
	}
}

// NumSegments returns the number of tracked segments.
func (d *Detector) NumSegments() int { return len(d.head) }

func (d *Detector) push(seg int, now uint64) {
	q := d.cfg.QueueLen
	h := int(d.head[seg])
	d.ts[seg*q+h] = now
	d.head[seg] = uint16((h + 1) % q)
	if int(d.count[seg]) < q {
		d.count[seg]++
	}
}

// RecordInsert updates segment metadata after inserting key k whose
// in-array predecessor and successor are pred/succ (Algorithm 1).
// hasPred/hasSucc are false at the array boundaries.
func (d *Detector) RecordInsert(seg int, pred, succ int64, hasPred, hasSucc bool, now uint64) {
	d.push(seg, now)
	if d.sc[seg] < int16(d.cfg.SC) {
		d.sc[seg]++
	}
	switch {
	case hasSucc && succ == d.bwdVal[seg]:
		if d.bwdCnt[seg] < int16(d.cfg.SC) {
			d.bwdCnt[seg]++
		}
	case hasPred && pred == d.fwdVal[seg]:
		if d.fwdCnt[seg] < int16(d.cfg.SC) {
			d.fwdCnt[seg]++
		}
	default:
		if d.bwdCnt[seg] > 0 {
			d.bwdCnt[seg]--
		}
		if d.fwdCnt[seg] > 0 {
			d.fwdCnt[seg]--
		}
		if d.bwdCnt[seg] == 0 && hasSucc {
			d.bwdVal[seg] = succ
		}
		if d.fwdCnt[seg] == 0 && hasPred {
			d.fwdVal[seg] = pred
		}
	}
}

// RecordDelete updates segment metadata after a deletion in seg.
func (d *Detector) RecordDelete(seg int, now uint64) {
	d.push(seg, now)
	if d.sc[seg] > -int16(d.cfg.SC) {
		d.sc[seg]--
	}
}

// Marks runs the preprocessing phase (Section IV) over the window of
// segments [lo, hi) and returns the marked segments in order. The
// returned slice aliases a buffer reused by the next Marks call: the
// caller must consume it before calling Marks again. Steady-state mark
// processing is allocation-free (see PERFORMANCE.md).
//
// The percentile cutoff follows the paper with one robustness fix: the
// cutoff rank is K = max(ceil((1-Alpha)*|T|), ceil(Phi*QueueLen)), so
// that on small windows — where the top 0.1% of |T| timestamps is less
// than one entry — a segment holding the most recent Phi*QueueLen
// updates can still be recognized as hammered.
//
// Mark processing runs inside the adaptive rebalance hot path: after
// the scratch warms up it is allocation-free.
//
//rma:noalloc
func (d *Detector) Marks(lo, hi int) []Mark {
	q := d.cfg.QueueLen
	total := 0
	for s := lo; s < hi; s++ {
		total += int(d.count[s])
	}
	if total == 0 {
		return nil
	}
	d.scratch = d.scratch[:0]
	for s := lo; s < hi; s++ {
		base := s * q
		for i := 0; i < int(d.count[s]); i++ {
			d.scratch = append(d.scratch, d.ts[base+i]) //rma:cap-ok — pre-sized to numSegs*QueueLen in Reset
		}
	}
	slices.Sort(d.scratch)

	k := int(math.Ceil((1 - d.cfg.Alpha) * float64(total)))
	if minK := int(math.Ceil(d.cfg.Phi * float64(q))); k < minK {
		k = minK
	}
	if k >= total {
		// Every timestamp would be above the cutoff: with so little
		// history there is no evidence of hammering.
		return nil
	}
	p := d.scratch[total-k-1] // strictly-greater cutoff

	marks := d.marksBuf[:0]
	for s := lo; s < hi; s++ {
		cnt := int(d.count[s])
		if cnt == 0 {
			continue
		}
		if absInt(int(d.sc[s])) < d.cfg.ThetaSC {
			continue
		}
		recent := 0
		base := s * q
		for i := 0; i < cnt; i++ {
			if d.ts[base+i] > p {
				recent++
			}
		}
		if float64(recent) < d.cfg.Phi*float64(cnt) {
			continue
		}
		m := Mark{Seg: s, Score: 1}
		if d.sc[s] < 0 {
			m.Score = -1
		}
		switch {
		case int(d.bwdCnt[s]) >= d.cfg.ThetaSC:
			m.Kind = MarkPairBwd
			m.Key = d.bwdVal[s]
		case int(d.fwdCnt[s]) >= d.cfg.ThetaSC:
			m.Kind = MarkPairFwd
			m.Key = d.fwdVal[s]
		default:
			m.Kind = MarkSegment
		}
		marks = append(marks, m) //rma:cap-ok — pre-sized to numSegs in Reset
	}
	d.marksBuf = marks
	return marks
}

// FootprintBytes returns the memory held by the detector.
func (d *Detector) FootprintBytes() int64 {
	return int64(cap(d.ts))*8 +
		int64(cap(d.head))*2 + int64(cap(d.count))*2 +
		int64(cap(d.bwdVal))*8 + int64(cap(d.bwdCnt))*2 +
		int64(cap(d.fwdVal))*8 + int64(cap(d.fwdCnt))*2 +
		int64(cap(d.sc))*2 + int64(cap(d.scratch))*8 +
		int64(cap(d.marksBuf))*32
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

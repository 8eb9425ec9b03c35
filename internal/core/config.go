// Package core implements the paper's sparse arrays: one configurable
// engine that spans the whole design space from the Traditional PMA
// (TPMA) baseline of Section II to the full Rewired Memory Array (RMA) of
// Sections III-IV. Every feature the paper ablates in Fig 14 —
// clustering, fixed-size segments, the static index, memory rewiring,
// adaptive rebalancing — is a configuration axis that switches a real
// code path, so the cumulative-contributions experiment toggles exactly
// the mechanisms the paper describes.
package core

import (
	"errors"
	"fmt"

	"rma/internal/calibrator"
	"rma/internal/detector"
)

// Layout selects how elements sit inside segments.
type Layout int

const (
	// LayoutClustered packs the elements of each segment toward one end —
	// the right end for the first segment of every pair and the left end
	// for the second — so every pair of segments exposes one contiguous
	// run and scans need no per-slot gap test (Section III "Segments").
	LayoutClustered Layout = iota
	// LayoutInterleaved spreads elements across the segment's slots with
	// gaps in between, tracked by an occupancy bitmap: the classic PMA
	// layout whose per-slot emptiness check costs a branch misprediction
	// per element scanned (Section I).
	LayoutInterleaved
)

// ErrClusteredOnly reports an attempt to shard, checkpoint or recover an
// engine whose Layout is not LayoutClustered. The interleaved layout is
// a paper baseline for the ablation experiments (NewTPMA, Fig 14); the
// serving and durability layers carry exactly one layout.
var ErrClusteredOnly = errors.New("core: only the clustered layout is sharded, checkpointed or recovered")

// SegmentSizing selects how the segment capacity evolves.
type SegmentSizing int

const (
	// SizingFixed keeps the segment size constant at Config.SegmentSlots,
	// tuned to the I/O-model block size like an (a,b)-tree leaf
	// (Section III).
	SizingFixed SegmentSizing = iota
	// SizingLogCap recomputes the segment size as Theta(log2 C) on every
	// resize: the RAM-model remnant used by traditional PMAs, which the
	// paper shows produces segments too small for scans and updates.
	SizingLogCap
)

// IndexKind selects the structure that routes keys to segments.
type IndexKind int

const (
	// IndexStatic is the RMA's pointer-free packed index (Fig 5):
	// fanout-65 nodes, O(1) single-entry updates, rebuilt only on resize.
	IndexStatic IndexKind = iota
	// IndexDynamic is the flat sorted array of segment minima that
	// traditional PMAs keep on the side, binary searched on every lookup.
	IndexDynamic
	// IndexEytzinger is the branchless evolution of the static index:
	// separators in BFS (Eytzinger) order, descended with one compare
	// and one shift-or per level — no inner binary search — with the
	// grandchild cache lines touched ahead of the compare chain, plus a
	// linear fast path for shallow arrays. Same O(1) separator updates
	// and resize-only rebuilds as IndexStatic; the default.
	IndexEytzinger
)

// RebalanceMode selects the physical redistribution mechanism.
type RebalanceMode int

const (
	// RebalanceRewired writes each element once into spare physical pages
	// and swaps virtual page-table entries (Fig 6); windows smaller than
	// a page fall back to the two-pass scheme, as in the paper.
	RebalanceRewired RebalanceMode = iota
	// RebalanceTwoPass is the classic scheme: compact every element into
	// auxiliary storage, then copy it again to its final position — two
	// copies per element.
	RebalanceTwoPass
)

// AdaptivePolicy selects the rebalancing policy.
type AdaptivePolicy int

const (
	// AdaptiveOff rebalances evenly (TPMA).
	AdaptiveOff AdaptivePolicy = iota
	// AdaptiveRMA is the paper's adaptive algorithm (Section IV): marked
	// intervals follow the predicted key frontier and move to the
	// least-loaded child.
	AdaptiveRMA
	// AdaptiveAPMA mimics Bender & Hu's APMA policy: whole-segment marks
	// pinned to their original side of the window. Under sorted
	// sequential insertions this is the policy whose "ping-pong" failure
	// mode Section II describes. It does not support deletions, like the
	// original.
	AdaptiveAPMA
)

// Config assembles an engine configuration. The zero value is not valid;
// start from DefaultConfig.
type Config struct {
	// SegmentSlots is the segment capacity B in elements (power of two,
	// >= 4). Ignored when Sizing == SizingLogCap, which derives it from
	// the capacity.
	SegmentSlots int
	Sizing       SegmentSizing
	Layout       Layout
	Index        IndexKind
	Rebalance    RebalanceMode
	Adaptive     AdaptivePolicy
	Thresholds   calibrator.Thresholds
	// IndexFanout is the static index node fanout (children per node);
	// the paper fixes 64 separator keys per node, i.e. fanout 65.
	IndexFanout int
	// PageSlots is the vmem page size in slots (power of two). It must
	// be at least 2*SegmentSlots so a segment pair never crosses a page.
	PageSlots int
	// Detector configures adaptive rebalancing; ignored when
	// Adaptive == AdaptiveOff.
	Detector detector.Config
}

// DefaultConfig returns the paper's RMA configuration — B=128 clustered
// fixed-size segments, rewired rebalances on 2048-slot (16 KB) pages,
// adaptive rebalancing, update-oriented thresholds (the defaults of
// Section V) — with one upgrade over the paper: the segment index
// defaults to the branchless Eytzinger descent (IndexEytzinger). Set
// Index to IndexStatic for the paper's exact Fig 5 structure.
func DefaultConfig() Config {
	return Config{
		SegmentSlots: 128,
		Sizing:       SizingFixed,
		Layout:       LayoutClustered,
		Index:        IndexEytzinger,
		Rebalance:    RebalanceRewired,
		Adaptive:     AdaptiveRMA,
		Thresholds:   calibrator.UpdateOriented(),
		IndexFanout:  65,
		PageSlots:    2048,
		Detector:     detector.DefaultConfig(),
	}
}

// BaselineConfig returns the TPMA baseline of Fig 1a / Fig 14:
// interleaved layout, log-sized segments, dynamic side index, two-pass
// rebalances, even rebalancing, literature thresholds.
func BaselineConfig() Config {
	cfg := DefaultConfig()
	cfg.Sizing = SizingLogCap
	cfg.Layout = LayoutInterleaved
	cfg.Index = IndexDynamic
	cfg.Rebalance = RebalanceTwoPass
	cfg.Adaptive = AdaptiveOff
	cfg.Thresholds = calibrator.Baseline()
	return cfg
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if c.Sizing == SizingFixed {
		if c.SegmentSlots < 4 || c.SegmentSlots&(c.SegmentSlots-1) != 0 {
			return fmt.Errorf("core: SegmentSlots must be a power of two >= 4, got %d", c.SegmentSlots)
		}
		if c.PageSlots < 2*c.SegmentSlots {
			return fmt.Errorf("core: PageSlots %d < 2*SegmentSlots %d (a segment pair must fit in a page)",
				c.PageSlots, c.SegmentSlots)
		}
	}
	if c.PageSlots < 8 || c.PageSlots&(c.PageSlots-1) != 0 {
		return fmt.Errorf("core: PageSlots must be a power of two >= 8, got %d", c.PageSlots)
	}
	if c.IndexFanout < 2 {
		return fmt.Errorf("core: IndexFanout must be >= 2, got %d", c.IndexFanout)
	}
	if err := c.Thresholds.Validate(); err != nil {
		return err
	}
	if c.Sizing == SizingLogCap && c.Thresholds.Strategy != calibrator.ResizeDouble {
		// Log-sized segments are recomputed from the capacity; the
		// proportional strategy's arbitrary capacities would break the
		// power-of-two segment size.
		return fmt.Errorf("core: SizingLogCap requires the doubling resize strategy")
	}
	if c.Adaptive != AdaptiveOff {
		if err := c.Detector.Validate(); err != nil {
			return err
		}
	}
	if c.Adaptive == AdaptiveAPMA && c.Thresholds.ForceShrinkFill > 0 {
		// APMA has no deletion support; the forced-shrink rule is a
		// deletion feature and would never fire, but reject the
		// combination to keep configurations honest.
		return fmt.Errorf("core: APMA policy does not support deletions (ForceShrinkFill set)")
	}
	return nil
}

// Stats is a snapshot of a structure's operation counters: what
// rma.Array.Stats and rma.Sharded.Stats return (rma.Stats is an alias),
// and what lets the benchmark harness attribute costs the way the paper
// does (e.g. "rebalances are responsible for between 2%% and 50%% of the
// cost of insertions"). The engine maintains the counters up to
// CheckpointPages; the shard layer fills in the read-path and
// write-ahead-log groups, which stay 0 on a single Array.
type Stats struct {
	// Lookups counts point reads that went through the engine's own read
	// path. On a Sharded map optimistic reads bypass the engine (they are
	// counted by LockFreeReads), so there Lookups counts only the reads
	// that fell back to the shard lock.
	Inserts, Deletes, Lookups uint64
	Rebalances                uint64 // windows rebalanced (excluding resizes)
	AdaptiveRebalances        uint64 // rebalances that used the Detector's marked intervals
	RebalancedSegments        uint64 // total segments touched by rebalances
	RebalancedElements        uint64 // total elements moved by rebalances
	Resizes, Grows, Shrinks   uint64 // capacity changes
	ElementCopies             uint64 // element copy operations performed (two-pass copies twice)
	PageSwaps                 uint64 // O(1) virtual page rewirings
	SlotScans                 uint64 // slots covered by interleaved stream readers (linearity guard)
	MaxWindowSegments         int    // largest window ever rebalanced
	BulkLoads                 uint64
	// DeferredWindows counts density violations a deferred-mode insert
	// queued for the background rebalancer instead of repairing on the
	// write path; MaintenanceRuns counts the maintenance passes that
	// found a violation still standing and executed the deferred
	// rebalance or resize. Both stay 0 without WithBackgroundRebalancing.
	DeferredWindows uint64
	MaintenanceRuns uint64
	// AllocFailures counts storage-substrate allocation failures
	// surfaced as ErrAllocFailed by rebalance/resize machinery (failure
	// injection in tests; a real allocator would return them under
	// memory pressure). The structure stays consistent and serving after
	// each one — the operation that hit the failure reports an error and
	// the structure rolls back to its pre-operation state.
	AllocFailures uint64
	// Durability counters (0 without WithDurability): Checkpoints and
	// CheckpointFailures count published and failed checkpoint attempts;
	// CheckpointPages counts dirty pages persisted across all published
	// checkpoints (the incremental-write economy: steady-state
	// checkpoints write only what changed).
	Checkpoints        uint64
	CheckpointFailures uint64
	CheckpointPages    uint64
	// Read-path counters of the sharded layer (0 on a single Array,
	// which has no lock to elide): LockFreeReads counts point reads
	// served without the shard lock; ReadRetries counts seqlock attempts
	// discarded by a version change or a torn view; ReadFallbacks counts
	// reads that exhausted their retry budget and took the shard lock;
	// EpochAdvances counts successful vmem epoch-gate advances
	// (retired-page reclamation); SnapshotBreaks counts cross-shard
	// reads that lost version-vector consistency and degraded to
	// per-shard semantics.
	LockFreeReads  uint64
	ReadRetries    uint64
	ReadFallbacks  uint64
	EpochAdvances  uint64
	SnapshotBreaks uint64
	// Write-ahead-log counters (0 without WithWAL).
	// WALRecords/WALWaves/WALSyncs count staged records, commit waves,
	// and fsyncs; the rotation/truncation pairs count segment lifecycle
	// events; the *Failures counters count injected or real faults on
	// each edge — after every one the store keeps serving with its last
	// recovery point intact. AutoCheckpoints counts checkpoints the
	// scheduler initiated on its own (dirty pages, WAL bytes, or elapsed
	// time crossed a threshold).
	WALRecords          uint64
	WALWaves            uint64
	WALSyncs            uint64
	WALRotations        uint64
	WALTruncations      uint64
	WALAppendFailures   uint64
	WALSyncFailures     uint64
	WALRotateFailures   uint64
	WALTruncateFailures uint64
	AutoCheckpoints     uint64
}

// Add folds o into s: every counter sums, MaxWindowSegments takes the
// larger value. The shard layer aggregates its per-shard engines with it.
func (s *Stats) Add(o Stats) {
	s.Inserts += o.Inserts
	s.Deletes += o.Deletes
	s.Lookups += o.Lookups
	s.Rebalances += o.Rebalances
	s.AdaptiveRebalances += o.AdaptiveRebalances
	s.RebalancedSegments += o.RebalancedSegments
	s.RebalancedElements += o.RebalancedElements
	s.Resizes += o.Resizes
	s.Grows += o.Grows
	s.Shrinks += o.Shrinks
	s.ElementCopies += o.ElementCopies
	s.PageSwaps += o.PageSwaps
	s.SlotScans += o.SlotScans
	s.MaxWindowSegments = max(s.MaxWindowSegments, o.MaxWindowSegments)
	s.BulkLoads += o.BulkLoads
	s.DeferredWindows += o.DeferredWindows
	s.MaintenanceRuns += o.MaintenanceRuns
	s.AllocFailures += o.AllocFailures
	s.Checkpoints += o.Checkpoints
	s.CheckpointFailures += o.CheckpointFailures
	s.CheckpointPages += o.CheckpointPages
	s.LockFreeReads += o.LockFreeReads
	s.ReadRetries += o.ReadRetries
	s.ReadFallbacks += o.ReadFallbacks
	s.EpochAdvances += o.EpochAdvances
	s.SnapshotBreaks += o.SnapshotBreaks
	s.WALRecords += o.WALRecords
	s.WALWaves += o.WALWaves
	s.WALSyncs += o.WALSyncs
	s.WALRotations += o.WALRotations
	s.WALTruncations += o.WALTruncations
	s.WALAppendFailures += o.WALAppendFailures
	s.WALSyncFailures += o.WALSyncFailures
	s.WALRotateFailures += o.WALRotateFailures
	s.WALTruncateFailures += o.WALTruncateFailures
	s.AutoCheckpoints += o.AutoCheckpoints
}

package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"rma/internal/calibrator"
	"rma/internal/detector"
	"rma/internal/vmem"
)

// Durability: crash-consistent checkpoints of one array into a
// vmem.FileRegion.
//
// The division of labor: vmem owns pages (dirty tracking, shadow-paged
// slot allocation, the epoch manifest); this file owns the array's
// logical state — geometry and cardinalities — serialized as the
// manifest's opaque meta blob. Everything
// else the array keeps in memory (Fenwick tree, calibrator, index,
// detector, scratch) is derived state, rebuilt on Open exactly the way
// a resize rebuilds it.
//
// A checkpoint never blocks correctness on timing: it persists whatever
// the array holds at the call, writing only pages whose content may
// have changed since the previous checkpoint (cardAdd and applyCards
// mark them; vmem's Swap and Grow mark their own). On any failure the
// array keeps serving from memory with its dirty bits intact, and the
// next Checkpoint retries the same work — graceful degradation to
// in-memory mode, pinned by the fault-injection tests.

// ErrNotDurable reports a Checkpoint call on an array without an
// attached durability region.
var ErrNotDurable = errors.New("core: array has no attached durability region")

const coreMetaMagic = "RMACORE1"

// AttachDurability binds the array to a file region and starts
// dirty-page tracking. Every currently mapped page is marked dirty, so
// the first checkpoint persists the array wholesale; later ones write
// only changed pages.
func (a *Array) AttachDurability(r *vmem.FileRegion) error {
	if a.cfg.Layout != LayoutClustered {
		return ErrClusteredOnly
	}
	if r.PageSlots() != a.cfg.PageSlots {
		return fmt.Errorf("core: region pageSlots %d != config PageSlots %d",
			r.PageSlots(), a.cfg.PageSlots)
	}
	a.dur = r
	a.keys.EnableDirtyTracking()
	a.vals.EnableDirtyTracking()
	return nil
}

// Durable reports whether a durability region is attached.
func (a *Array) Durable() bool { return a.dur != nil }

// PageSlots returns the configured vmem page size in slots.
func (a *Array) PageSlots() int { return a.cfg.PageSlots }

// Region returns the attached durability region, nil when in-memory.
func (a *Array) Region() *vmem.FileRegion { return a.dur }

// Checkpoint persists the array's current state as a new epoch and
// returns it. keep names one older epoch that must stay recoverable
// (the shard layer passes the epoch its map-level checkpoint last
// published; 0 for none). On failure the array is unchanged and keeps
// serving from memory; the dirty bits survive, so the next call
// retries the same pages.
func (a *Array) Checkpoint(keep uint64) (uint64, error) {
	if a.dur == nil {
		return 0, ErrNotDurable
	}
	before := a.dur.Stats().PagesWritten
	epoch, err := a.dur.Checkpoint(a.encodeMeta(), keep, a.keys, a.vals)
	if err != nil {
		a.stats.CheckpointFailures++
		return 0, err
	}
	a.stats.Checkpoints++
	a.stats.CheckpointPages += a.dur.Stats().PagesWritten - before
	return epoch, nil
}

// Open rebuilds an array from the checkpoint at the given epoch (0 for
// the latest) of an opened file region, leaving the region attached so
// the array continues checkpointing incrementally. cfg must describe
// the same engine the checkpoint was taken with (the page size is
// verified against the stored meta; the rest — thresholds, index kind,
// adaptivity — are free to differ, like a config change across a
// restart).
func Open(r *vmem.FileRegion, cfg Config, epoch uint64) (*Array, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Layout != LayoutClustered {
		return nil, ErrClusteredOnly
	}
	spaces, meta, _, err := r.Recover(epoch)
	if err != nil {
		return nil, err
	}
	if len(spaces) != 2 {
		return nil, fmt.Errorf("core: checkpoint holds %d spaces, want 2 (keys, vals)", len(spaces))
	}
	md, err := decodeCoreMeta(meta)
	if err != nil {
		return nil, err
	}
	if md.pageSlots != cfg.PageSlots {
		return nil, fmt.Errorf("core: checkpoint pageSlots %d != config PageSlots %d", md.pageSlots, cfg.PageSlots)
	}

	a := &Array{cfg: cfg}
	a.pageShift = uint(log2(cfg.PageSlots))
	a.keys, a.vals = spaces[0], spaces[1]
	a.segSlots, a.numSegs, a.n = md.segSlots, md.numSegs, md.n

	// Structural cross-checks: the meta must describe exactly the pages
	// recovered, and the cardinalities must be internally consistent —
	// a checkpoint that fails these is corrupt despite valid checksums
	// (which should be impossible; fail loudly rather than serve it).
	if md.numSegs <= 0 || md.segSlots <= 0 || md.numSegs*md.segSlots != a.keys.Slots() ||
		a.keys.Slots() != a.vals.Slots() {
		return nil, fmt.Errorf("core: checkpoint geometry %d segs x %d slots does not match %d recovered slots",
			md.numSegs, md.segSlots, a.keys.Slots())
	}
	sum := 0
	for _, c := range md.cards {
		if c < 0 || int(c) > md.segSlots {
			return nil, fmt.Errorf("core: checkpoint segment cardinality %d out of range", c)
		}
		sum += int(c)
	}
	if sum != md.n {
		return nil, fmt.Errorf("core: checkpoint cardinalities sum to %d, meta says n=%d", sum, md.n)
	}
	a.cards = md.cards
	a.fen.reset(a.cards)

	// Derived state, rebuilt the way resizeTo rebuilds it.
	a.cal = calibrator.NewTree(a.numSegs, cfg.Thresholds)
	a.rebuildIndexFromLayout()
	a.warmRebalanceScratch()
	if cfg.Adaptive != AdaptiveOff {
		a.det = detector.New(a.numSegs, cfg.Detector)
		a.warmAdaptiveScratch()
	}
	a.dur = r
	a.walLSN = md.walLSN
	a.publishView()
	return a, nil
}

// SetWALLSN records the LSN of the last WAL record applied to this
// array. The shard layer calls it under the shard lock at every logged
// write, so the value a checkpoint captures is exactly the replay
// floor: recovery re-applies only records above it.
func (a *Array) SetWALLSN(lsn uint64) { a.walLSN = lsn }

// WALLSN returns the last applied WAL record's LSN (0 before any).
func (a *Array) WALLSN() uint64 { return a.walLSN }

// DirtyPages returns the number of pages the next checkpoint would
// write (0 without dirty tracking) — the checkpoint scheduler's
// dirty-page signal.
func (a *Array) DirtyPages() int {
	if a.dur == nil {
		return 0
	}
	return a.keys.DirtyCount() + a.vals.DirtyCount()
}

// InjectAllocFailure arms failure injection on both page spaces: the
// keysN-th next keys allocation and valsN-th next vals allocation fail
// (negative disables). Testing hook only.
func (a *Array) InjectAllocFailure(keysN, valsN int) {
	a.keys.InjectAllocFailure(keysN)
	a.vals.InjectAllocFailure(valsN)
}

// --- meta encoding ----------------------------------------------------------
//
// The manifest meta blob carries the array state pages cannot:
//
//	magic "RMACORE1"          8 bytes
//	version                   u32 (currently 2)
//	pageSlots                 u32
//	segSlots                  u32
//	numSegs                   u32
//	layout                    u32 (always 0, LayoutClustered)
//	n                         u64
//	cards                     numSegs × u32
//	bitmapWords               u32 (always 0: no occupancy bitmap follows)
//	walLSN                    u64 (version >= 2; the shard's WAL floor)
//
// The two fixed words date from when interleaved arrays could checkpoint;
// they stay so every existing clustered checkpoint still opens, and a
// blob carrying anything else in them is rejected.
//
// Version 1 blobs (pre-WAL checkpoints) decode with walLSN = 0: replay
// re-applies the whole log, which is safe — the floor only prunes work.
//
// Integrity is the manifest's job (whole-manifest CRC-32C); this blob
// adds structural validation only.

type coreMeta struct {
	pageSlots int
	segSlots  int
	numSegs   int
	n         int
	cards     []int32
	walLSN    uint64
}

func (a *Array) encodeMeta() []byte {
	n := len(coreMetaMagic) + 4*5 + 8 + len(a.cards)*4 + 4 + 8
	b := make([]byte, 0, n)
	b = append(b, coreMetaMagic...)
	b = binary.LittleEndian.AppendUint32(b, 2)
	b = binary.LittleEndian.AppendUint32(b, uint32(a.cfg.PageSlots))
	b = binary.LittleEndian.AppendUint32(b, uint32(a.segSlots))
	b = binary.LittleEndian.AppendUint32(b, uint32(a.numSegs))
	b = binary.LittleEndian.AppendUint32(b, 0) // layout
	b = binary.LittleEndian.AppendUint64(b, uint64(a.n))
	for _, c := range a.cards {
		b = binary.LittleEndian.AppendUint32(b, uint32(c))
	}
	b = binary.LittleEndian.AppendUint32(b, 0) // bitmapWords
	b = binary.LittleEndian.AppendUint64(b, a.walLSN)
	return b
}

func decodeCoreMeta(meta []byte) (*coreMeta, error) {
	bad := fmt.Errorf("core: malformed checkpoint meta (%d bytes)", len(meta))
	if len(meta) < len(coreMetaMagic)+4*5+8 || string(meta[:len(coreMetaMagic)]) != coreMetaMagic {
		return nil, bad
	}
	b := meta[len(coreMetaMagic):]
	u32 := func() uint32 { x := binary.LittleEndian.Uint32(b); b = b[4:]; return x }
	version := u32()
	if version != 1 && version != 2 {
		return nil, fmt.Errorf("core: unsupported checkpoint meta version %d", version)
	}
	md := &coreMeta{}
	md.pageSlots = int(u32())
	md.segSlots = int(u32())
	md.numSegs = int(u32())
	if layout := u32(); layout != 0 {
		return nil, fmt.Errorf("core: checkpoint meta layout %d: %w", layout, ErrClusteredOnly)
	}
	md.n = int(binary.LittleEndian.Uint64(b))
	b = b[8:]
	if md.numSegs < 0 || len(b) < md.numSegs*4+4 {
		return nil, bad
	}
	md.cards = make([]int32, md.numSegs)
	for i := range md.cards {
		md.cards[i] = int32(u32())
	}
	if words := u32(); words != 0 {
		return nil, fmt.Errorf("core: checkpoint meta carries %d bitmap words: %w", words, ErrClusteredOnly)
	}
	if version >= 2 {
		if len(b) != 8 {
			return nil, bad
		}
		md.walLSN = binary.LittleEndian.Uint64(b)
	} else if len(b) != 0 {
		return nil, bad
	}
	return md, nil
}

// File-backed region: the durable counterpart of Pages.
//
// A FileRegion stores physical pages in one named data file (pages.dat)
// and the virtual→physical mapping in epoch-stamped, checksummed
// manifest files — shadow paging at page granularity. A checkpoint
// writes only the dirty pages, to file slots no retained manifest
// references, fsyncs the data file, and then publishes the new mapping
// atomically (write manifest-<epoch>.tmp, fsync, rename, fsync the
// directory). A crash at any point leaves the previously published
// manifest — and every file slot it references — untouched, so recovery
// always finds a complete, self-consistent snapshot. This is the
// paper's rewiring economy carried to storage: Swap stays a
// metadata-only operation in memory, and on disk a checkpoint costs
// exactly the pages that changed plus one small manifest.
//
// Epoch retention follows the caller's two-level checkpoint scheme: the
// keep argument of Checkpoint names one older epoch that must stay
// recoverable (the shard layer passes the epoch its map-level
// checkpoint last published), and the region retains {keep, latest} —
// a slot is reclaimed only when no retained manifest references it.
//
// A FileRegion is not safe for concurrent use; callers serialize access
// (the shard layer does so under the shard lock).
package vmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ErrNoCheckpoint reports that a region directory holds no valid,
// completely published checkpoint manifest.
var ErrNoCheckpoint = errors.New("vmem: no valid checkpoint manifest")

// ErrFaultInjected is the error every injected FileRegion fault wraps.
// Testing hook only.
var ErrFaultInjected = errors.New("vmem: injected fault")

// errTorn reports a manifest that fails structural or checksum
// validation — a torn or corrupt file, skipped during recovery.
var errTorn = errors.New("vmem: torn or corrupt manifest")

// castagnoli is the CRC-32C polynomial table used for both per-page and
// whole-manifest checksums (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	manifestMagic  = "RMAFREG1"
	dataFileName   = "pages.dat"
	manifestPrefix = "manifest-"
)

// FaultOp names an injectable failure point in the checkpoint path.
type FaultOp string

const (
	// FaultPageWrite fails a dirty-page write to the data file.
	FaultPageWrite FaultOp = "pagewrite"
	// FaultDataSync fails the data-file fsync before publish.
	FaultDataSync FaultOp = "datasync"
	// FaultManifestWrite fails writing the manifest temp file.
	FaultManifestWrite FaultOp = "manifestwrite"
	// FaultManifestSync fails the manifest fsync before rename.
	FaultManifestSync FaultOp = "manifestsync"
	// FaultRename fails the atomic rename that publishes the manifest.
	FaultRename FaultOp = "rename"
)

// pageRef locates one virtual page's content: a data-file slot plus the
// CRC-32C of its encoded bytes.
type pageRef struct {
	slot uint64
	crc  uint32
}

// manifest is one published checkpoint: an epoch, an opaque caller meta
// blob, and the complete slot mapping of every space.
type manifest struct {
	epoch     uint64
	pageSlots int
	slots     uint64 // data-file slot high-water at publish time
	meta      []byte
	spaces    [][]pageRef
}

// FileRegionStats counts the region's I/O work.
type FileRegionStats struct {
	Checkpoints      uint64 // successfully published checkpoints
	PagesWritten     uint64 // dirty pages persisted
	BytesWritten     uint64 // page bytes written to the data file
	ManifestsRetired uint64 // manifests retired by retention
}

// FileRegion is a durable page store for one or more Pages spaces.
type FileRegion struct {
	dir       string
	pageSlots int
	data      *os.File

	epoch     uint64               // highest published epoch
	current   [][]pageRef          // mapping the next checkpoint builds on
	manifests map[uint64]*manifest // retained checkpoints, by epoch
	refcnt    map[uint64]int       // data-file slot -> retaining manifests
	freeSlots []uint64             // slots below the high-water with no references
	fileSlots uint64               // data-file slot high-water

	pageBuf []byte // one page of encoded bytes, reused
	faults  map[FaultOp]int
	stats   FileRegionStats
	closed  bool
}

// CreateFileRegion initializes a fresh region at dir (created if
// missing). Any previous manifests at dir are removed so stale epochs
// cannot be recovered over the new history; the data file is truncated.
func CreateFileRegion(dir string, pageSlots int) (*FileRegion, error) {
	if pageSlots <= 0 {
		return nil, fmt.Errorf("vmem: invalid pageSlots %d", pageSlots)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("vmem: create region dir: %w", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("vmem: create region: %w", err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), manifestPrefix) {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	f, err := os.OpenFile(filepath.Join(dir, dataFileName), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("vmem: create region data file: %w", err)
	}
	return &FileRegion{
		dir:       dir,
		pageSlots: pageSlots,
		data:      f,
		manifests: make(map[uint64]*manifest),
		refcnt:    make(map[uint64]int),
		pageBuf:   make([]byte, pageSlots*8),
		faults:    make(map[FaultOp]int),
	}, nil
}

// OpenFileRegion opens an existing region, locating every valid
// manifest at dir (torn ones — which the atomic publish should never
// produce — are tolerated and ignored). Returns ErrNoCheckpoint when no
// valid manifest exists.
func OpenFileRegion(dir string) (*FileRegion, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("vmem: open region: %w", err)
	}
	var ms []*manifest
	for _, e := range ents {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(dir, name)) // unpublished leftovers of a crash
			continue
		}
		if !strings.HasPrefix(name, manifestPrefix) {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		m, err := decodeManifest(raw)
		if err != nil {
			continue
		}
		ms = append(ms, m)
	}
	if len(ms) == 0 {
		return nil, ErrNoCheckpoint
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].epoch < ms[j].epoch })
	latest := ms[len(ms)-1]

	f, err := os.OpenFile(filepath.Join(dir, dataFileName), os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("vmem: open region data file: %w", err)
	}
	r := &FileRegion{
		dir:       dir,
		pageSlots: latest.pageSlots,
		data:      f,
		epoch:     latest.epoch,
		current:   latest.spaces,
		manifests: make(map[uint64]*manifest),
		refcnt:    make(map[uint64]int),
		pageBuf:   make([]byte, latest.pageSlots*8),
		faults:    make(map[FaultOp]int),
	}
	for _, m := range ms {
		if m.pageSlots != latest.pageSlots {
			continue
		}
		r.manifests[m.epoch] = m
		if m.slots > r.fileSlots {
			r.fileSlots = m.slots
		}
		for _, refs := range m.spaces {
			for _, pr := range refs {
				r.refcnt[pr.slot]++
				if pr.slot >= r.fileSlots {
					r.fileSlots = pr.slot + 1
				}
			}
		}
	}
	for s := uint64(0); s < r.fileSlots; s++ {
		if r.refcnt[s] == 0 {
			r.freeSlots = append(r.freeSlots, s)
		}
	}
	return r, nil
}

// Dir returns the region directory.
func (r *FileRegion) Dir() string { return r.dir }

// PageSlots returns the page size in int64 slots.
func (r *FileRegion) PageSlots() int { return r.pageSlots }

// Epoch returns the highest published checkpoint epoch (0 when none).
func (r *FileRegion) Epoch() uint64 { return r.epoch }

// Epochs returns the retained checkpoint epochs in ascending order.
func (r *FileRegion) Epochs() []uint64 {
	out := make([]uint64, 0, len(r.manifests))
	for e := range r.manifests {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats returns the accumulated I/O counters.
func (r *FileRegion) Stats() FileRegionStats { return r.stats }

// FileSlots returns the data-file slot high-water (for inspection).
func (r *FileRegion) FileSlots() uint64 { return r.fileSlots }

// Close releases the data file. The region stays recoverable on disk.
// Idempotent: the serving layer composes Sharded.Close from pieces
// that callers may legitimately re-run (shutdown paths race a SHUTDOWN
// command against signal handlers), so a second Close is a no-op
// rather than an os.ErrClosed.
func (r *FileRegion) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	return r.data.Close()
}

// InjectFault makes the n-th next operation of kind op fail (n == 0
// fails the very next one). Pass a negative n to disable. Testing hook
// only.
func (r *FileRegion) InjectFault(op FaultOp, n int) {
	if n < 0 {
		delete(r.faults, op)
		return
	}
	r.faults[op] = n
}

func (r *FileRegion) faultOn(op FaultOp) error {
	n, ok := r.faults[op]
	if !ok {
		return nil
	}
	if n == 0 {
		delete(r.faults, op)
		return fmt.Errorf("%w: %s", ErrFaultInjected, op)
	}
	r.faults[op] = n - 1
	return nil
}

// Checkpoint persists the given spaces at a new epoch and publishes it
// atomically. Only dirty pages are written (clean pages keep the slots
// the previous manifest assigned them); meta is an opaque caller blob
// stored in the manifest; keep names one older epoch that must remain
// recoverable (0 for none). On success the spaces' dirty bitmaps are
// cleared and the new epoch is returned.
//
// On any failure — injected or real — the region and the spaces are
// unchanged: the previous epoch remains the published checkpoint, the
// dirty bits stay set, and the next Checkpoint retries the same work.
func (r *FileRegion) Checkpoint(meta []byte, keep uint64, spaces ...*Pages) (uint64, error) {
	for i, sp := range spaces {
		if sp.PageSlots() != r.pageSlots {
			return 0, fmt.Errorf("vmem: checkpoint space %d: pageSlots %d != region %d",
				i, sp.PageSlots(), r.pageSlots)
		}
	}
	newEpoch := r.epoch + 1
	m := &manifest{
		epoch:     newEpoch,
		pageSlots: r.pageSlots,
		meta:      append([]byte(nil), meta...),
		spaces:    make([][]pageRef, len(spaces)),
	}

	// Slot allocations roll back wholesale on failure: popped free slots
	// return to the free list, extensions reset the high-water. Pages
	// already written to those slots are garbage no manifest references.
	fileSlots0 := r.fileSlots
	var taken []uint64
	rollback := func() {
		r.freeSlots = append(r.freeSlots, taken...)
		r.fileSlots = fileSlots0
	}

	for i, sp := range spaces {
		var prior []pageRef
		if i < len(r.current) {
			prior = r.current[i]
		}
		refs := make([]pageRef, sp.NumPages())
		for v := 0; v < sp.NumPages(); v++ {
			if v < len(prior) && !sp.IsDirty(v) {
				refs[v] = prior[v]
				continue
			}
			slot := r.allocSlot(&taken)
			pr, err := r.writePage(slot, sp.Page(v))
			if err != nil {
				rollback()
				return 0, err
			}
			refs[v] = pr
		}
		m.spaces[i] = refs
	}

	if err := r.faultOn(FaultDataSync); err != nil {
		rollback()
		return 0, err
	}
	if err := r.data.Sync(); err != nil {
		rollback()
		return 0, fmt.Errorf("vmem: checkpoint data sync: %w", err)
	}
	m.slots = r.fileSlots
	if err := r.publish(m); err != nil {
		rollback()
		return 0, err
	}

	// Published: install the new mapping, retire everything retention
	// does not cover, and mark the spaces clean.
	r.manifests[newEpoch] = m
	for _, refs := range m.spaces {
		for _, pr := range refs {
			r.refcnt[pr.slot]++
		}
	}
	r.epoch = newEpoch
	r.current = m.spaces
	r.retireExcept(keep, newEpoch)
	for _, sp := range spaces {
		sp.ClearDirty()
	}
	r.stats.Checkpoints++
	return newEpoch, nil
}

// Recover loads the spaces of the checkpoint at the given epoch (0 for
// the latest), verifying every page checksum. The returned Pages have
// dirty tracking enabled and clean (their content equals the recovered
// checkpoint), and the region's working mapping is reset to that epoch
// so subsequent checkpoints build on it.
func (r *FileRegion) Recover(epoch uint64) ([]*Pages, []byte, uint64, error) {
	if epoch == 0 {
		epoch = r.epoch
	}
	m := r.manifests[epoch]
	if m == nil {
		return nil, nil, 0, fmt.Errorf("%w (epoch %d)", ErrNoCheckpoint, epoch)
	}
	out := make([]*Pages, len(m.spaces))
	for i, refs := range m.spaces {
		p := New(r.pageSlots)
		if err := p.Grow(len(refs)); err != nil {
			return nil, nil, 0, err
		}
		for v, pr := range refs {
			if err := r.readPage(pr, p.Page(v)); err != nil {
				return nil, nil, 0, fmt.Errorf("vmem: recover space %d page %d: %w", i, v, err)
			}
		}
		p.EnableDirtyTracking()
		p.ClearDirty()
		out[i] = p
	}
	r.current = m.spaces
	return out, append([]byte(nil), m.meta...), m.epoch, nil
}

// allocSlot returns a data-file slot no retained manifest references,
// recording popped free slots in taken for rollback.
func (r *FileRegion) allocSlot(taken *[]uint64) uint64 {
	if n := len(r.freeSlots); n > 0 {
		s := r.freeSlots[n-1]
		r.freeSlots = r.freeSlots[:n-1]
		*taken = append(*taken, s)
		return s
	}
	s := r.fileSlots
	r.fileSlots++
	return s
}

// writePage encodes pg at the given data-file slot and returns its ref.
func (r *FileRegion) writePage(slot uint64, pg []int64) (pageRef, error) {
	if err := r.faultOn(FaultPageWrite); err != nil {
		return pageRef{}, err
	}
	buf := r.pageBuf
	for i, x := range pg {
		binary.LittleEndian.PutUint64(buf[i*8:], uint64(x))
	}
	if _, err := r.data.WriteAt(buf, int64(slot)*int64(len(buf))); err != nil {
		return pageRef{}, fmt.Errorf("vmem: write page to slot %d: %w", slot, err)
	}
	r.stats.PagesWritten++
	r.stats.BytesWritten += uint64(len(buf))
	return pageRef{slot: slot, crc: crc32.Checksum(buf, castagnoli)}, nil
}

// readPage loads the page at pr into out, verifying the checksum.
func (r *FileRegion) readPage(pr pageRef, out []int64) error {
	buf := r.pageBuf
	if _, err := r.data.ReadAt(buf, int64(pr.slot)*int64(len(buf))); err != nil {
		return fmt.Errorf("read slot %d: %w", pr.slot, err)
	}
	if crc := crc32.Checksum(buf, castagnoli); crc != pr.crc {
		return fmt.Errorf("slot %d checksum mismatch (got %08x, manifest %08x)", pr.slot, crc, pr.crc)
	}
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return nil
}

// publish writes m's manifest file and makes it visible atomically:
// write to a .tmp, fsync, rename into place, fsync the directory. A
// crash before the rename leaves only the previous manifest; after it,
// only a complete new one.
func (r *FileRegion) publish(m *manifest) error {
	raw := encodeManifest(m)
	tmp := filepath.Join(r.dir, manifestName(m.epoch)+".tmp")
	final := filepath.Join(r.dir, manifestName(m.epoch))
	if err := r.faultOn(FaultManifestWrite); err != nil {
		return err
	}
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("vmem: publish manifest: %w", err)
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("vmem: publish manifest: %w", err)
	}
	if err := r.faultOn(FaultManifestSync); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("vmem: publish manifest sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("vmem: publish manifest close: %w", err)
	}
	if err := r.faultOn(FaultRename); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("vmem: publish manifest rename: %w", err)
	}
	if err := syncDir(r.dir); err != nil {
		os.Remove(final)
		return fmt.Errorf("vmem: publish manifest dir sync: %w", err)
	}
	return nil
}

// retireExcept drops every retained manifest whose epoch is not listed,
// reclaiming data-file slots whose reference count reaches zero and
// removing the manifest files.
func (r *FileRegion) retireExcept(keep ...uint64) {
	for e, m := range r.manifests {
		retained := false
		for _, k := range keep {
			if e == k {
				retained = true
				break
			}
		}
		if retained {
			continue
		}
		for _, refs := range m.spaces {
			for _, pr := range refs {
				r.refcnt[pr.slot]--
				if r.refcnt[pr.slot] == 0 {
					delete(r.refcnt, pr.slot)
					r.freeSlots = append(r.freeSlots, pr.slot)
				}
			}
		}
		delete(r.manifests, e)
		os.Remove(filepath.Join(r.dir, manifestName(e)))
		r.stats.ManifestsRetired++
	}
}

func manifestName(epoch uint64) string {
	return fmt.Sprintf("%s%016x", manifestPrefix, epoch)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// --- manifest encoding ------------------------------------------------------
//
// Little-endian throughout. Layout:
//
//	magic "RMAFREG1"                        8 bytes
//	pageSlots                               u32
//	epoch                                   u64
//	fileSlots (data-file high-water)        u64
//	metaLen, meta                           u32 + bytes
//	numSpaces                               u32
//	per space: numPages, then numPages ×    u32
//	  { slot u64, crc u32 }                 12 bytes each
//	CRC-32C of everything above             u32

func le32(b []byte, x uint32) []byte {
	return append(b, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
}

func le64(b []byte, x uint64) []byte {
	b = le32(b, uint32(x))
	return le32(b, uint32(x>>32))
}

func encodeManifest(m *manifest) []byte {
	n := len(manifestMagic) + 4 + 8 + 8 + 4 + len(m.meta) + 4 + 4
	for _, refs := range m.spaces {
		n += 4 + len(refs)*12
	}
	raw := make([]byte, 0, n)
	raw = append(raw, manifestMagic...)
	raw = le32(raw, uint32(m.pageSlots))
	raw = le64(raw, m.epoch)
	raw = le64(raw, m.slots)
	raw = le32(raw, uint32(len(m.meta)))
	raw = append(raw, m.meta...)
	raw = le32(raw, uint32(len(m.spaces)))
	for _, refs := range m.spaces {
		raw = le32(raw, uint32(len(refs)))
		for _, pr := range refs {
			raw = le64(raw, pr.slot)
			raw = le32(raw, pr.crc)
		}
	}
	return le32(raw, crc32.Checksum(raw, castagnoli))
}

// cursor is a bounds-checked little-endian reader for decodeManifest.
type cursor struct {
	b   []byte
	bad bool
}

func (c *cursor) u32() uint32 {
	if len(c.b) < 4 {
		c.bad = true
		return 0
	}
	x := binary.LittleEndian.Uint32(c.b)
	c.b = c.b[4:]
	return x
}

func (c *cursor) u64() uint64 {
	if len(c.b) < 8 {
		c.bad = true
		return 0
	}
	x := binary.LittleEndian.Uint64(c.b)
	c.b = c.b[8:]
	return x
}

func (c *cursor) bytes(n int) []byte {
	if n < 0 || len(c.b) < n {
		c.bad = true
		return nil
	}
	x := c.b[:n:n]
	c.b = c.b[n:]
	return x
}

func decodeManifest(raw []byte) (*manifest, error) {
	if len(raw) < len(manifestMagic)+4 {
		return nil, errTorn
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(tail) {
		return nil, errTorn
	}
	if string(body[:len(manifestMagic)]) != manifestMagic {
		return nil, errTorn
	}
	c := &cursor{b: body[len(manifestMagic):]}
	m := &manifest{}
	m.pageSlots = int(c.u32())
	m.epoch = c.u64()
	m.slots = c.u64()
	m.meta = append([]byte(nil), c.bytes(int(c.u32()))...)
	numSpaces := int(c.u32())
	if c.bad || numSpaces < 0 || numSpaces > len(c.b)/4 {
		return nil, errTorn
	}
	m.spaces = make([][]pageRef, numSpaces)
	for i := range m.spaces {
		numPages := int(c.u32())
		if c.bad || numPages < 0 || numPages > len(c.b)/12 {
			return nil, errTorn
		}
		refs := make([]pageRef, numPages)
		for v := range refs {
			refs[v] = pageRef{slot: c.u64(), crc: c.u32()}
		}
		m.spaces[i] = refs
	}
	if c.bad || len(c.b) != 0 || m.pageSlots <= 0 || m.epoch == 0 {
		return nil, errTorn
	}
	return m, nil
}

package segment

import (
	"errors"
	"fmt"
	"io"
	"iter"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/seldel/seldel/internal/block"
	manifestlog "github.com/seldel/seldel/internal/manifest"
	"github.com/seldel/seldel/internal/store"
)

const (
	// segMagic heads every segment file.
	segMagic = "SELSEG1\n"
	// recHeaderSize is the fixed per-record prefix: block number (u64),
	// payload length (u32), payload CRC-32 (u32), little-endian.
	recHeaderSize = 16
	// DefaultSegmentBytes is the roll threshold used when
	// Options.SegmentBytes is 0.
	DefaultSegmentBytes = 1 << 20
	// DefaultMaxOpenFiles is the sealed-segment read-handle cap used
	// when Options.MaxOpenFiles is 0.
	DefaultMaxOpenFiles = 64
	// maxRecordBytes bounds a single decoded record, so a corrupt
	// length field cannot drive allocation.
	maxRecordBytes = 64 << 20
	// PartitionsMetaName is the metadata file that marks a directory as
	// a partitioned store root (per-partition stores live in p000/,
	// p001/, ... beneath it). It is defined here rather than in the
	// partition package so Open can recognize such roots without an
	// import cycle.
	PartitionsMetaName = "PARTITIONS"
)

// Options parameterize a segment store.
type Options struct {
	// SegmentBytes is the size threshold at which the active segment is
	// sealed and a new one started. Smaller segments retire earlier
	// under truncation (bytes reclaim sooner); larger ones amortize
	// per-file cost further. 0 means DefaultSegmentBytes.
	SegmentBytes int64
	// SyncEvery forces an fsync after every PutBlock — per-block
	// durability, the strongest (and slowest) setting. When false (the
	// default) the store syncs on segment roll, truncation, snapshot,
	// and Close, bounding loss to the unsynced tail of the active
	// segment; Open truncates any torn tail back to the last durable
	// record.
	SyncEvery bool
	// MaxOpenFiles caps how many sealed segments keep their read file
	// handle open at once. Sealed segments are read-only; their handles
	// live in an LRU and are reopened transparently on access, so a
	// very long-lived store holds O(MaxOpenFiles) descriptors instead
	// of one per segment. The active segment's handle is always open
	// and does not count against the cap. 0 means DefaultMaxOpenFiles.
	MaxOpenFiles int
}

// recordLoc locates one block's payload inside a segment file.
type recordLoc struct {
	seg *segmentFile
	off int64 // payload offset (past the record header)
	n   int   // payload length
}

// segmentFile is one on-disk segment.
type segmentFile struct {
	id    uint64
	path  string
	f     *os.File
	size  int64
	count int    // records currently indexed in this segment
	first uint64 // lowest indexed block number (valid when count > 0)
	last  uint64 // highest indexed block number
}

// Store is a file-backed store.Store keeping blocks in bounded,
// append-only segment files. All methods are safe for concurrent use.
type Store struct {
	mu     sync.Mutex
	dir    string
	opts   Options
	segs   []*segmentFile // ascending by id; last one is active
	index  map[uint64]recordLoc
	marker uint64
	closed bool
	// del is the durable deletion manifest: one audit record per
	// executed truncation, appended before the marker shift becomes
	// durable.
	del *manifestlog.Log
	// lru holds the sealed segments whose read handle is currently
	// open, least recently used first. The active segment never enters
	// it: its handle must stay open for appends.
	lru []*segmentFile
	// fsyncs counts fsyncs issued against segment data files and the
	// store directory (metadata marker files are excluded);
	// TestFsyncsPerBlock divides it by blocks appended.
	fsyncs atomic.Uint64
}

var _ store.Store = (*Store)(nil)

// ErrCorrupt reports a record of a sealed segment that fails its length
// or checksum. Only the newest segment is ever appended to — the one
// before it is fsynced before its successor is created — so a crash can
// tear no other: a bad record anywhere else is damage or tampering, and
// Open refuses the directory instead of truncating evidence away.
var ErrCorrupt = errors.New("segment: corrupt record in a sealed segment")

// Open opens (or creates) a segment store rooted at dir, reconciling
// the manifest against the segment files actually present: torn tails
// are truncated to the last durable record, segments created but not
// yet recorded are adopted, and truncations interrupted mid-flight
// (manifest advanced, files not yet deleted or rewritten) are
// completed. The reconciled state is re-persisted before Open returns.
func Open(dir string, opts Options) (*Store, error) {
	if opts.SegmentBytes < 0 {
		return nil, fmt.Errorf("segment: negative SegmentBytes")
	}
	if opts.SegmentBytes == 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.MaxOpenFiles < 0 {
		return nil, fmt.Errorf("segment: negative MaxOpenFiles")
	}
	if opts.MaxOpenFiles == 0 {
		opts.MaxOpenFiles = DefaultMaxOpenFiles
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("segment: create dir: %w", err)
	}
	// A partitioned store root holds per-partition stores in p000/,
	// p001/, ... subdirectories plus a PARTITIONS metadata file; it is
	// not itself a segment store. Opening it directly would create a
	// stray empty store alongside the partitions, so refuse loudly.
	if _, err := os.Stat(filepath.Join(dir, PartitionsMetaName)); err == nil {
		return nil, fmt.Errorf("segment: %s is a partitioned store root (has %s); open its p*/ subdirectories or use the partition package", dir, PartitionsMetaName)
	}
	s := &Store{
		dir:   dir,
		opts:  opts,
		index: make(map[uint64]recordLoc),
	}
	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	s.marker = man.marker
	// The snapshot checkpoint is a second durable marker record: if the
	// manifest was lost (or predates the last truncation), the snapshot
	// still prevents cut blocks from resurrecting into the stream. A
	// corrupt snapshot is therefore a loud failure, not a fallback —
	// silently ignoring it could replay logically deleted blocks.
	switch snap, err := readSnapshot(dir); {
	case err == nil:
		if snap.Marker > s.marker {
			s.marker = snap.Marker
		}
	case !errors.Is(err, errNoCheckpoint):
		return nil, err
	}
	// The deletion manifest is the third durable marker record, written
	// BEFORE the snapshot in the truncation sequence. A crash between
	// the manifest append and the snapshot write leaves the manifest
	// head ahead of both marker files; rolling the marker forward to it
	// completes the interrupted deletion instead of resurrecting the
	// blocks it recorded.
	del, err := manifestlog.Open(dir)
	if err != nil {
		return nil, err
	}
	s.del = del
	if head, ok := del.Head(); ok && head.NewMarker > s.marker {
		s.marker = head.NewMarker
	}
	if err := s.recover(man); err != nil {
		s.closeFiles()
		return nil, err
	}
	if err := s.writeManifestLocked(); err != nil {
		s.closeFiles()
		return nil, err
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Marker returns the persisted Genesis marker (0 when never truncated).
func (s *Store) Marker() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, store.ErrClosed
	}
	return s.marker, nil
}

// recover scans the segment files on disk, reconciles them with the
// manifest, and rebuilds the in-memory offset index.
func (s *Store) recover(man *manifest) error {
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("segment: list dir: %w", err)
	}
	onDisk := make(map[uint64]string)
	for _, e := range names {
		id, ok := parseSegmentName(e.Name())
		if !ok {
			continue
		}
		onDisk[id] = filepath.Join(s.dir, e.Name())
	}
	// A segment the manifest expects but the directory lacks is fine
	// only when the whole segment was already logically cut: then the
	// crash hit between the manifest update and the unlink's sibling
	// operations, and the deletion simply completed. Anything else is
	// real data loss and must fail loudly.
	for _, ms := range man.segments {
		if _, ok := onDisk[ms.id]; ok {
			continue
		}
		if ms.count == 0 || ms.last < man.marker {
			continue
		}
		return fmt.Errorf("segment: segment %d (blocks %d-%d) listed in manifest but missing on disk", ms.id, ms.first, ms.last)
	}
	ids := make([]uint64, 0, len(onDisk))
	for id := range onDisk {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for i, id := range ids {
		seg, err := s.openSegment(id, onDisk[id], i == len(ids)-1)
		if err != nil {
			return err
		}
		// Interrupted truncation: every indexed block is already below
		// the marker, so the segment was due to be unlinked. Finish.
		if seg.count > 0 && seg.last < s.marker {
			for num, loc := range s.index {
				if loc.seg == seg {
					delete(s.index, num)
				}
			}
			seg.f.Close()
			if err := os.Remove(seg.path); err != nil {
				return fmt.Errorf("segment: remove retired segment %d: %w", id, err)
			}
			continue
		}
		s.segs = append(s.segs, seg)
	}
	// Drop index entries below the marker (the boundary segment may
	// still hold pre-marker records after a crash); rewrite boundary
	// segments so the stale bytes are physically reclaimed too.
	for num := range s.index {
		if num < s.marker {
			delete(s.index, num)
		}
	}
	for _, seg := range s.segs {
		if seg.count > 0 && seg.first < s.marker {
			if err := s.rewriteSegmentLocked(seg); err != nil {
				return err
			}
		}
	}
	if len(s.segs) == 0 {
		if err := s.startSegmentLocked(0); err != nil {
			return err
		}
	}
	// Recovery opened every segment to scan its records; hand the
	// sealed ones to the read-handle LRU so the cap holds from the
	// first moment (lruTouch deduplicates segments a boundary rewrite
	// already registered).
	for _, seg := range s.segs[:len(s.segs)-1] {
		if seg.f != nil {
			s.lruTouch(seg)
		}
	}
	return nil
}

// openSegment reads one segment file and registers its records in the
// index (higher segments win on duplicate numbers, so re-puts resolve to
// the newest copy). In the newest segment a tail that fails its length
// or checksum is what a crash mid-append leaves: it is truncated back to
// the last record that verifies. In a sealed one it is ErrCorrupt.
func (s *Store) openSegment(id uint64, path string, newest bool) (*segmentFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("segment: open %s: %w", path, err)
	}
	seg := &segmentFile{id: id, path: path, f: f}
	raw, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("segment: read %s: %w", path, err)
	}
	good := int64(0)
	if len(raw) >= len(segMagic) && string(raw[:len(segMagic)]) == segMagic {
		good = int64(len(segMagic))
		for {
			num, payload, span, ok := parseRecord(raw[good:])
			if !ok {
				break // torn or corrupt tail
			}
			s.indexRecord(seg, num, good+recHeaderSize, len(payload))
			good += int64(span)
		}
	} else if len(raw) > 0 {
		f.Close()
		return nil, fmt.Errorf("segment: %s: bad magic", path)
	} else {
		// Zero-length file: a segment created right before a crash.
		// Stamp the magic so appends can proceed.
		if _, err := f.Write([]byte(segMagic)); err != nil {
			f.Close()
			return nil, fmt.Errorf("segment: stamp %s: %w", path, err)
		}
		good = int64(len(segMagic))
	}
	if good < int64(len(raw)) {
		if !newest {
			f.Close()
			return nil, fmt.Errorf("%w: %s at offset %d", ErrCorrupt, path, good)
		}
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, fmt.Errorf("segment: truncate torn tail of %s: %w", path, err)
		}
	}
	seg.size = good
	return seg, nil
}

// indexRecord points the index at a record and maintains the owning
// segment's block-range accounting. A record for an already-indexed
// number supersedes the older copy (its owner loses the count).
func (s *Store) indexRecord(seg *segmentFile, num uint64, off int64, n int) {
	if old, ok := s.index[num]; ok {
		old.seg.count--
	}
	s.index[num] = recordLoc{seg: seg, off: off, n: n}
	if seg.count == 0 || num < seg.first {
		seg.first = num
	}
	if seg.count == 0 || num > seg.last {
		seg.last = num
	}
	seg.count++
}

func segmentName(id uint64) string { return fmt.Sprintf("seg-%08d.seg", id) }

func parseSegmentName(name string) (uint64, bool) {
	var id uint64
	if n, err := fmt.Sscanf(name, "seg-%08d.seg", &id); err != nil || n != 1 {
		return 0, false
	}
	if name != segmentName(id) {
		return 0, false
	}
	return id, true
}

// startSegmentLocked creates and activates a fresh segment file.
func (s *Store) startSegmentLocked(id uint64) error {
	path := filepath.Join(s.dir, segmentName(id))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("segment: create %s: %w", path, err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return fmt.Errorf("segment: stamp %s: %w", path, err)
	}
	s.segs = append(s.segs, &segmentFile{
		id:   id,
		path: path,
		f:    f,
		size: int64(len(segMagic)),
	})
	return nil
}

func (s *Store) active() *segmentFile { return s.segs[len(s.segs)-1] }

// handleLocked returns an open file handle for seg, transparently
// reopening a sealed segment whose handle was evicted from the
// read-handle LRU. The active segment is exempt: its handle stays open
// for appends and never counts against the cap. The returned handle is
// only guaranteed open until the next handleLocked call (which may
// evict it), so callers must finish their reads under the same lock
// hold without interleaving other segment accesses.
func (s *Store) handleLocked(seg *segmentFile) (*os.File, error) {
	if seg == s.active() {
		return seg.f, nil
	}
	if seg.f != nil {
		s.lruTouch(seg)
		return seg.f, nil
	}
	f, err := os.OpenFile(seg.path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("segment: reopen %s: %w", seg.path, err)
	}
	seg.f = f
	s.lruInsert(seg)
	return f, nil
}

// lruInsert registers an open sealed-segment handle as most recently
// used, closing the least recently used handles beyond the cap.
func (s *Store) lruInsert(seg *segmentFile) {
	s.lru = append(s.lru, seg)
	for len(s.lru) > s.opts.MaxOpenFiles {
		old := s.lru[0]
		s.lru = s.lru[1:]
		if old.f != nil {
			old.f.Close()
			old.f = nil
		}
	}
}

// lruTouch marks an open handle most recently used, registering it if
// it is not tracked yet (a segment freshly sealed by a roll).
func (s *Store) lruTouch(seg *segmentFile) {
	for i, e := range s.lru {
		if e == seg {
			copy(s.lru[i:], s.lru[i+1:])
			s.lru[len(s.lru)-1] = seg
			return
		}
	}
	s.lruInsert(seg)
}

// lruDrop forgets a segment whose handle the caller is closing or
// replacing.
func (s *Store) lruDrop(seg *segmentFile) {
	for i, e := range s.lru {
		if e == seg {
			s.lru = append(s.lru[:i], s.lru[i+1:]...)
			return
		}
	}
}

// OpenHandles reports how many segment file handles are currently open
// (observability for the fd-cap tests; always ≥ 1 for the active
// segment).
func (s *Store) OpenHandles() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, store.ErrClosed
	}
	open := 0
	for _, seg := range s.segs {
		if seg.f != nil {
			open++
		}
	}
	return open, nil
}

// PutBlock implements store.Store: append one length-prefixed record to
// the active segment, rolling to a new segment at the size threshold.
// Re-putting a block number appends a superseding record; the index
// always resolves to the newest copy. The record is built in a pooled
// scratch buffer (records.go), so the append path allocates nothing
// per block in steady state.
func (s *Store) PutBlock(b *block.Block) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return store.ErrClosed
	}
	rb := getRecordBuf()
	defer putRecordBuf(rb)
	rec, payloadLen := appendBlockRecord(rb, b)
	// The write path must agree with the recovery scan: a record larger
	// than maxRecordBytes would append fine today and then be treated
	// as a torn tail by the next Open, truncating it AND every record
	// behind it. Reject it up front instead.
	if payloadLen > maxRecordBytes {
		return fmt.Errorf("segment: block %d encodes to %d bytes, over the %d-byte record limit",
			b.Header.Number, payloadLen, maxRecordBytes)
	}

	act := s.active()
	if act.size+int64(len(rec)) > s.opts.SegmentBytes && act.size > int64(len(segMagic)) {
		if err := s.rollLocked(); err != nil {
			return err
		}
		act = s.active()
	}
	if _, err := act.f.WriteAt(rec, act.size); err != nil {
		return fmt.Errorf("segment: append block %d: %w", b.Header.Number, err)
	}
	s.indexRecord(act, b.Header.Number, act.size+recHeaderSize, payloadLen)
	act.size += int64(len(rec))
	if s.opts.SyncEvery {
		if err := act.f.Sync(); err != nil {
			return fmt.Errorf("segment: sync: %w", err)
		}
		s.fsyncs.Add(1)
	}
	return nil
}

// rollLocked seals the active segment (fsync) and starts its successor,
// recording the new segment in the manifest so a crash between the two
// steps is recovered by the adopt-unknown-segments path.
func (s *Store) rollLocked() error {
	act := s.active()
	if err := act.f.Sync(); err != nil {
		return fmt.Errorf("segment: seal segment %d: %w", act.id, err)
	}
	s.fsyncs.Add(1)
	if err := s.startSegmentLocked(act.id + 1); err != nil {
		return err
	}
	// The sealed segment's handle becomes a read handle: track it in
	// the LRU so long-lived stores stop accumulating descriptors.
	s.lruInsert(act)
	return s.writeManifestLocked()
}

// GetBlock loads one block: one pread via the offset index.
func (s *Store) GetBlock(num uint64) (*block.Block, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.getBlockLocked(num)
}

func (s *Store) getBlockLocked(num uint64) (*block.Block, error) {
	if s.closed {
		return nil, store.ErrClosed
	}
	loc, ok := s.index[num]
	if !ok {
		return nil, fmt.Errorf("%w: %d", store.ErrNotFound, num)
	}
	f, err := s.handleLocked(loc.seg)
	if err != nil {
		return nil, err
	}
	payload := make([]byte, loc.n)
	if _, err := f.ReadAt(payload, loc.off); err != nil {
		return nil, fmt.Errorf("segment: read block %d: %w", num, err)
	}
	return block.DecodeBlock(payload)
}

// Range implements store.Store.
func (s *Store) Range() (uint64, uint64, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, 0, false, store.ErrClosed
	}
	if len(s.index) == 0 {
		return 0, 0, false, nil
	}
	first, last := ^uint64(0), uint64(0)
	for num := range s.index {
		if num < first {
			first = num
		}
		if num > last {
			last = num
		}
	}
	return first, last, true, nil
}

// sortedNumbersLocked returns the indexed block numbers ≥ marker in
// ascending order. Stale pre-marker records (possible only transiently
// after a crash, before Open's rewrite) are never served.
func (s *Store) sortedNumbersLocked() []uint64 {
	nums := make([]uint64, 0, len(s.index))
	for num := range s.index {
		if num >= s.marker {
			nums = append(nums, num)
		}
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	return nums
}

// Stream implements store.Store: blocks are yielded in ascending order
// starting at the Genesis marker — the snapshot checkpoint's promise
// that a restore replays only the live suffix. Each block is read and
// decoded lazily per yield (re-locking per read, so a concurrent Close
// is honoured mid-stream).
func (s *Store) Stream() iter.Seq2[*block.Block, error] {
	return func(yield func(*block.Block, error) bool) {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			yield(nil, store.ErrClosed)
			return
		}
		nums := s.sortedNumbersLocked()
		s.mu.Unlock()
		for _, num := range nums {
			b, err := s.GetBlock(num)
			if err != nil {
				yield(nil, err)
				return
			}
			if !yield(b, nil) {
				return
			}
		}
	}
}

// DeleteBelow implements store.Store: persist marker, write the
// snapshot checkpoint, then physically retire the cut prefix — whole
// segments below the marker are unlinked (one syscall each, however
// many blocks they held) and the boundary segment straddling the marker
// is rewritten without its dead prefix. The durable ordering (snapshot
// and manifest first, file surgery second) makes an interrupted
// truncation recoverable: Open completes the deletion instead of
// resurrecting cut blocks.
func (s *Store) DeleteBelow(marker uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deleteBelowLocked(marker, nil)
}

// DeleteBelowRecord is DeleteBelow with a deletion-manifest record:
// rec is appended durably to the DELETIONS log after the active
// segment syncs and before the marker files shift, so the audit trail
// exists from the first moment the deletion can become visible. The
// assigned manifest sequence number is written back into rec.
func (s *Store) DeleteBelowRecord(marker uint64, rec *manifestlog.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deleteBelowLocked(marker, rec)
}

func (s *Store) deleteBelowLocked(marker uint64, rec *manifestlog.Record) error {
	if s.closed {
		return store.ErrClosed
	}
	if marker < s.marker {
		return fmt.Errorf("segment: marker moving backwards: %d < %d", marker, s.marker)
	}
	if err := s.active().f.Sync(); err != nil {
		return fmt.Errorf("segment: sync before truncate: %w", err)
	}
	s.fsyncs.Add(1)
	if rec != nil {
		stored, err := s.del.Append(*rec)
		if err != nil {
			return err
		}
		rec.Seq = stored.Seq
	}
	s.marker = marker
	if err := s.writeSnapshotLocked(); err != nil {
		return err
	}
	if err := s.writeManifestLocked(); err != nil {
		return err
	}
	for num := range s.index {
		if num < marker {
			loc := s.index[num]
			loc.seg.count--
			delete(s.index, num)
		}
	}
	// Build the surviving set in a fresh slice: a mid-loop failure
	// (ENOSPC during a rewrite, an unlink error) must leave s.segs
	// consistent — already-retired segments gone, everything else
	// intact — so Close/SizeBytes/the manifest never see duplicates.
	kept := make([]*segmentFile, 0, len(s.segs))
	for i, seg := range s.segs {
		active := i == len(s.segs)-1
		switch {
		case seg.count == 0 && !active:
			if err := os.Remove(seg.path); err != nil && !os.IsNotExist(err) {
				s.segs = append(kept, s.segs[i:]...)
				return fmt.Errorf("segment: retire segment %d: %w", seg.id, err)
			}
			s.lruDrop(seg)
			if seg.f != nil {
				seg.f.Close()
				seg.f = nil
			}
		case seg.count > 0 && seg.first < marker:
			if err := s.rewriteSegmentLocked(seg); err != nil {
				s.segs = append(kept, s.segs[i:]...)
				return err
			}
			kept = append(kept, seg)
		default:
			kept = append(kept, seg)
		}
	}
	s.segs = kept
	if len(s.segs) == 0 {
		if err := s.startSegmentLocked(0); err != nil {
			return err
		}
	}
	// Make the unlinks durable before the manifest stops listing the
	// retired segments, so a power loss cannot surface a manifest that
	// expects files whose deletion already reached the disk (or vice
	// versa leave both — either ordering is recoverable, torn metadata
	// is not).
	if err := syncDir(s.dir); err != nil {
		return err
	}
	s.fsyncs.Add(1)
	return s.writeManifestLocked()
}

// rewriteSegmentLocked compacts one segment down to its records that
// are still indexed and at-or-above the marker, atomically (write to a
// temp file, fsync, rename over). The segment's open handle and the
// index offsets are refreshed to the rewritten file.
func (s *Store) rewriteSegmentLocked(seg *segmentFile) error {
	type keptRec struct {
		num uint64
		off int64
		n   int
	}
	var kept []keptRec
	for num, loc := range s.index {
		if loc.seg == seg && num >= s.marker {
			kept = append(kept, keptRec{num: num, off: loc.off, n: loc.n})
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].off < kept[j].off })

	src, err := s.handleLocked(seg)
	if err != nil {
		return err
	}
	tmpPath := seg.path + ".tmp"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("segment: rewrite %s: %w", seg.path, err)
	}
	defer os.Remove(tmpPath) // no-op after the rename succeeds
	if _, err := tmp.Write([]byte(segMagic)); err != nil {
		tmp.Close()
		return fmt.Errorf("segment: rewrite %s: %w", seg.path, err)
	}
	off := int64(len(segMagic))
	newOffsets := make(map[uint64]int64, len(kept))
	rb := getRecordBuf()
	defer putRecordBuf(rb)
	for _, r := range kept {
		// Read the payload straight into the record buffer behind the
		// reserved header, then stamp the header — one pooled buffer
		// serves the whole rewrite.
		rec := rb.sized(r.n)
		if _, err := src.ReadAt(rec[recHeaderSize:], r.off); err != nil {
			tmp.Close()
			return fmt.Errorf("segment: rewrite %s: read block %d: %w", seg.path, r.num, err)
		}
		fillRecordHeader(rec, r.num)
		if _, err := tmp.WriteAt(rec, off); err != nil {
			tmp.Close()
			return fmt.Errorf("segment: rewrite %s: %w", seg.path, err)
		}
		newOffsets[r.num] = off + recHeaderSize
		off += int64(len(rec))
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("segment: rewrite %s: sync: %w", seg.path, err)
	}
	s.fsyncs.Add(1)
	if err := os.Rename(tmpPath, seg.path); err != nil {
		tmp.Close()
		return fmt.Errorf("segment: rewrite %s: rename: %w", seg.path, err)
	}
	s.lruDrop(seg)
	if seg.f != nil {
		seg.f.Close()
	}
	seg.f = tmp
	if seg != s.active() {
		s.lruInsert(seg)
	}
	seg.size = off
	seg.count = 0
	for _, r := range kept {
		s.index[r.num] = recordLoc{seg: seg, off: newOffsets[r.num], n: r.n}
		if seg.count == 0 || r.num < seg.first {
			seg.first = r.num
		}
		if seg.count == 0 || r.num > seg.last {
			seg.last = r.num
		}
		seg.count++
	}
	return nil
}

// SizeBytes implements store.Store: the physical size of every segment
// file — the number that visibly shrinks when deletion retires
// segments, which is the whole point (E4 measures it).
func (s *Store) SizeBytes() (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, store.ErrClosed
	}
	var total int64
	for _, seg := range s.segs {
		total += seg.size
	}
	return total, nil
}

// Sync forces the active segment to stable storage, for callers that
// batch appends with SyncEvery disabled but want a durability point.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return store.ErrClosed
	}
	if err := s.active().f.Sync(); err != nil {
		return fmt.Errorf("segment: sync: %w", err)
	}
	s.fsyncs.Add(1)
	return nil
}

// FsyncCount reports the number of fsyncs issued so far against
// segment data files and the store directory. Marker metadata writes
// (manifest, snapshot, deletion log) are excluded: the counter exists
// to measure append-path durability cost, where the segment data sync
// is the unit of work group commit amortizes.
func (s *Store) FsyncCount() uint64 { return s.fsyncs.Load() }

// SegmentCount returns the number of live segment files (observability
// for tests, examples and the repo benchmark).
func (s *Store) SegmentCount() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, store.ErrClosed
	}
	return len(s.segs), nil
}

// Close implements store.Store: sync the active segment, persist the
// manifest, and release every file handle.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.active().f.Sync()
	if err == nil {
		s.fsyncs.Add(1)
	}
	if merr := s.writeManifestLocked(); err == nil {
		err = merr
	}
	s.closeFiles()
	s.closed = true
	if err != nil {
		return fmt.Errorf("segment: close: %w", err)
	}
	return nil
}

func (s *Store) closeFiles() {
	for _, seg := range s.segs {
		if seg.f != nil {
			seg.f.Close()
			seg.f = nil
		}
	}
	s.del.Close()
	s.lru = nil
}

// errNoCheckpoint distinguishes "no snapshot yet" from a read failure.
var errNoCheckpoint = errors.New("segment: no snapshot checkpoint")

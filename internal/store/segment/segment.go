package segment

import (
	"errors"
	"fmt"
	"iter"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/seldel/seldel/internal/block"
	manifestlog "github.com/seldel/seldel/internal/manifest"
)

const (
	// segMagic heads every segment file.
	segMagic = "SELSEG1\n"
	// recHeaderSize is the fixed per-record prefix: block number (u64),
	// payload length (u32), payload CRC-32 (u32), little-endian.
	recHeaderSize = 16
	// DefaultSegmentBytes is the roll threshold used when
	// Options.SegmentBytes is 0. A segment can exceed it by less than
	// one record: the append that reaches it is not split.
	DefaultSegmentBytes = 1 << 20
	// maxRecordBytes bounds a single decoded record, so a corrupt
	// length field cannot drive allocation.
	maxRecordBytes = 64 << 20
	// retiredPartitionsMeta marks a directory written as a partitioned
	// store root: this file over one segment store per partition in
	// p000/, p001/, ... (see ErrRetiredLayout).
	retiredPartitionsMeta = "PARTITIONS"
	// retiredSnapshotName is the checkpoint file older stores wrote at
	// every marker shift: the marker, the head, and a copy of the marker
	// block. Nothing reads it; Open removes a leftover one, so the bytes
	// of entries erased later do not outlive them in that copy.
	retiredSnapshotName = "SNAPSHOT"
)

// Options parameterize a segment store.
type Options struct {
	// SegmentBytes bounds a segment within one sequence: the first
	// append after the active segment has reached it rolls. A segment
	// therefore exceeds it by less than one record, and a record larger
	// than SegmentBytes shares its predecessors' segment instead of
	// costing a roll before and after it. Segments retire per sequence
	// whatever their size (PutBlock rolls after every summary block), so
	// SegmentBytes sets how many files a long sequence spreads over, not
	// when bytes are reclaimed. 0 means DefaultSegmentBytes.
	SegmentBytes int64
}

// maxOpenFiles caps how many sealed segments keep their read file handle
// open at once. Sealed segments are read-only; their handles live in an
// LRU and are reopened transparently on access, so a very long-lived
// store holds a bounded number of descriptors instead of one per
// segment. The active segment's handle is always open and does not
// count against the cap. A variable only so tests can lower it.
var maxOpenFiles = 64

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

// Store is a file-backed chain.Store keeping blocks in size-capped,
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
	// rec is the record buffer every segment read and write goes through
	// (records.go): PutBlock builds records in it, GetBlock reads
	// payloads into it, and Open scans segment files into it. All run
	// under mu, so one buffer serves the flusher's appends, reads and
	// recovery alike.
	rec []byte
	// rollNext makes the next PutBlock start a new segment: the last
	// record appended was a summary block Σ, which ends its sequence, or
	// the store was just opened and does not know whether its active
	// segment ended on one. A cut that finds it set starts that segment
	// itself, so the append after a sequence boundary rolls nothing.
	rollNext bool
	// dirDirty reports a segment file created since the store directory
	// was last fsynced: its directory entry, and so every record in it,
	// is not durable until the next MANIFEST rewrite or directory sync.
	dirDirty bool
	// fsyncs counts the fsyncs the store issues, by what they make
	// durable (the sync* sites below). FsyncCount reports the segment
	// data and bare directory fsyncs; TestSequenceBoundaryFsyncs reads
	// every site.
	fsyncs [syncSites]atomic.Uint64
}

// The places a store issues fsyncs, indexing Store.fsyncs.
const (
	// syncSegment is one fsync of a segment data file.
	syncSegment = iota
	// syncDir is one fsync of the store directory on its own.
	syncDir
	// syncDeletions is the fsync of one DELETIONS append.
	syncDeletions
	// syncManifest counts a MANIFEST rewrite's two fsyncs: its temporary
	// file, and the directory after the rename.
	syncManifest
	syncSites
)

// Errors returned by the store's operations.
var (
	ErrNotFound = errors.New("segment: block not found")
	ErrClosed   = errors.New("segment: closed")
)

// ErrCorrupt reports a record of a sealed segment that fails its length
// or checksum, or a segment holding records on both sides of the Genesis
// marker. Only the newest segment is ever appended to — the one before
// it is fsynced before its successor is created — so a crash can tear
// no other, and a segment never spans a sequence start, where every
// marker lies: either finding is damage or tampering, and Open refuses
// the directory instead of truncating evidence away.
var ErrCorrupt = errors.New("segment: corrupt record in a sealed segment")

// ErrRetiredLayout reports a directory in a layout no reader remains
// for: a partitioned store root (a PARTITIONS file over p000/, p001/,
// ...), or a store whose MANIFEST is retiredManifestHeader's, written
// before segments ended at sequence starts, so its segments can straddle
// a future marker. Open and Inspect refuse it before touching a byte:
// opened as a store the first would look empty, and a cut through the
// second would have to rewrite a file to erase what it cut.
var ErrRetiredLayout = errors.New("segment: retired store layout")

// checkLayout refuses a directory in a retired layout.
func checkLayout(dir string) error {
	if _, err := os.Stat(filepath.Join(dir, retiredPartitionsMeta)); err == nil {
		return fmt.Errorf("%w: %s has %s", ErrRetiredLayout, dir, retiredPartitionsMeta)
	}
	if raw, err := os.ReadFile(filepath.Join(dir, manifestName)); err == nil && strings.HasPrefix(string(raw), retiredManifestHeader+"\n") {
		return fmt.Errorf("%w: %s has a %q %s", ErrRetiredLayout, dir, retiredManifestHeader, manifestName)
	}
	return nil
}

// Open opens (or creates) a segment store rooted at dir, reconciling
// the manifest against the segment files actually present: torn tails
// are truncated to the last durable record, segments created but not
// yet recorded are adopted, and truncations interrupted mid-flight
// (DELETIONS or MANIFEST advanced, files not yet unlinked or MANIFEST
// not yet rewritten) are completed. The
// reconciled state is re-persisted before Open returns, and a leftover
// SNAPSHOT file (retiredSnapshotName) is removed. A directory in a
// retired layout fails with ErrRetiredLayout.
func Open(dir string, opts Options) (*Store, error) {
	if opts.SegmentBytes < 0 {
		return nil, fmt.Errorf("segment: negative SegmentBytes")
	}
	if opts.SegmentBytes == 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := checkLayout(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("segment: create dir: %w", err)
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
	// The deletion manifest is the marker's second durable home, appended
	// BEFORE the MANIFEST rewrite in the truncation sequence. A crash
	// between the two leaves the DELETIONS head ahead of MANIFEST; rolling
	// the marker forward to it completes the interrupted deletion instead
	// of resurrecting the blocks it recorded. If MANIFEST is lost, the
	// head still keeps cut blocks out of the stream.
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
	s.rollNext = true
	// The MANIFEST rewrite below fsyncs the directory, which makes this
	// removal durable too.
	if err := os.Remove(filepath.Join(dir, retiredSnapshotName)); err != nil && !os.IsNotExist(err) {
		s.closeFiles()
		return nil, fmt.Errorf("segment: remove retired %s: %w", retiredSnapshotName, err)
	}
	if err := s.writeManifestLocked(); err != nil {
		s.closeFiles()
		return nil, err
	}
	return s, nil
}

// Marker returns the persisted Genesis marker (0 when never truncated).
func (s *Store) Marker() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
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
	// only when the whole segment was already logically cut, below the
	// effective marker: a cut unlinks after its DELETIONS append and
	// before the MANIFEST rewrite, so a crash in between leaves MANIFEST
	// listing what the unlinks removed. Anything else is real data loss
	// and must fail loudly.
	for _, ms := range man.segments {
		if _, ok := onDisk[ms.id]; ok {
			continue
		}
		if ms.count == 0 || ms.last < s.marker {
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
		if seg.straddles(s.marker) {
			seg.f.Close()
			return fmt.Errorf("%w: %s holds blocks %d-%d, across marker %d", ErrCorrupt, seg.path, seg.first, seg.last, s.marker)
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
	if len(s.segs) == 0 {
		if err := s.startSegmentLocked(0); err != nil {
			return err
		}
	}
	// Recovery opened every segment to scan its records; hand the
	// sealed ones to the read-handle LRU so the cap holds from the
	// first moment.
	for _, seg := range s.segs[:len(s.segs)-1] {
		s.lruInsert(seg)
	}
	return nil
}

// openSegment reads one segment file and registers its records in the
// index (higher segments win on duplicate numbers, so re-puts resolve to
// the newest copy). In the newest segment a tail that fails its length
// or checksum is what a crash mid-append leaves: it is truncated back to
// the last record that verifies. In a sealed one it is ErrCorrupt. The
// file is read into the store's record buffer (scanSegment), which is
// cleared before the call returns.
func (s *Store) openSegment(id uint64, path string, newest bool) (*segmentFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("segment: open %s: %w", path, err)
	}
	seg := &segmentFile{id: id, path: path, f: f}
	raw, good, err := scanSegment(f, s.recordLocked, func(num uint64, off int64, n int) {
		s.indexRecord(seg, num, off, n)
	})
	// A crash between a segment's create and its stamp leaves a strict
	// prefix of the magic: nothing, or a torn stamp. Only the newest
	// segment can be torn so; in a sealed one a torn stamp is refused
	// like any other bytes.
	torn := len(raw) == 0 || newest && len(raw) < len(segMagic) && string(raw) == segMagic[:len(raw)]
	s.releaseRecordLocked(len(raw))
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("segment: %s: %w", path, err)
	}
	if good == 0 {
		if !torn {
			f.Close()
			return nil, fmt.Errorf("segment: %s: bad magic", path)
		}
		// Stamp it whole so appends can proceed.
		if _, err := f.WriteAt([]byte(segMagic), 0); err != nil {
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

// straddles reports whether seg holds records on both sides of marker:
// blocks a cut to marker must erase and blocks it must keep, which no
// unlink of the whole file can separate.
func (seg *segmentFile) straddles(marker uint64) bool {
	return seg.size > int64(len(segMagic)) && seg.first < marker && marker <= seg.last
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
	s.dirDirty = true
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
	for len(s.lru) > maxOpenFiles {
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

// PutBlock implements chain.Store: append one length-prefixed record to
// the active segment. A non-empty active segment is sealed and a new one
// started first when the block begins a sequence or may: the previous
// record was a summary block Σ, which ends its sequence; the block does
// not follow the segment's last number (a re-put, or chain.Chain.Attach's
// backfill of an adopted chain); or this is the first append since Open.
// So a segment never spans a sequence start, where the chain sets every
// Genesis marker, and a cut retires whole files. The active segment also
// rolls once it has reached the size threshold, so a record larger than
// a segment shares its predecessors' segment and the next append rolls:
// one roll per oversized record, never an empty segment. Re-putting a
// block number appends a superseding record; the index always resolves
// to the newest copy. The record is built in the store's one record
// buffer, sized from the block's exact encoding (records.go), so the
// append path allocates nothing per block in steady state.
func (s *Store) PutBlock(b *block.Block) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	// The write path must agree with the recovery scan: a record larger
	// than maxRecordBytes would append fine today and then be treated
	// as a torn tail by the next Open, truncating it AND every record
	// behind it. Reject it up front instead.
	payloadLen := b.EncodedSize()
	if payloadLen > maxRecordBytes {
		return fmt.Errorf("segment: block %d encodes to %d bytes, over the %d-byte record limit",
			b.Header.Number, payloadLen, maxRecordBytes)
	}

	act := s.active()
	if act.size > int64(len(segMagic)) &&
		(s.rollNext || b.Header.Number != act.last+1 || act.size >= s.opts.SegmentBytes) {
		if err := s.rollLocked(); err != nil {
			return err
		}
		act = s.active()
	}
	rec := s.appendBlockRecord(b, payloadLen)
	defer s.releaseRecordLocked(len(rec))
	if _, err := act.f.WriteAt(rec, act.size); err != nil {
		return fmt.Errorf("segment: append block %d: %w", b.Header.Number, err)
	}
	s.indexRecord(act, b.Header.Number, act.size+recHeaderSize, payloadLen)
	act.size += int64(len(rec))
	s.rollNext = b.IsSummary()
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
	s.fsyncs[syncSegment].Add(1)
	if err := s.startNextLocked(); err != nil {
		return err
	}
	return s.writeManifestLocked()
}

// startNextLocked seals the active segment, whose records the caller
// has fsynced, and starts its successor. The sealed segment's handle
// becomes a read handle: it joins the LRU so long-lived stores stop
// accumulating descriptors.
func (s *Store) startNextLocked() error {
	act := s.active()
	if err := s.startSegmentLocked(act.id + 1); err != nil {
		return err
	}
	s.lruInsert(act)
	s.rollNext = false
	return nil
}

// syncActiveLocked fsyncs the active segment and, when a segment was
// created since the directory was last synced, the directory too:
// records are durable only once the file that holds them is reachable.
func (s *Store) syncActiveLocked() error {
	if err := s.active().f.Sync(); err != nil {
		return err
	}
	s.fsyncs[syncSegment].Add(1)
	if !s.dirDirty {
		return nil
	}
	if err := manifestlog.SyncDir(s.dir); err != nil {
		return err
	}
	s.fsyncs[syncDir].Add(1)
	s.dirDirty = false
	return nil
}

// GetBlock loads one block: one pread via the offset index. The block
// is parsed, not shape-checked (block.Decode): its body is not
// re-committed against its header. chain.Open's restore does that for every
// block Stream yields; other callers run Block.CheckShape themselves.
func (s *Store) GetBlock(num uint64) (*block.Block, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.getBlockLocked(num)
}

func (s *Store) getBlockLocked(num uint64) (*block.Block, error) {
	if s.closed {
		return nil, ErrClosed
	}
	loc, ok := s.index[num]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNotFound, num)
	}
	f, err := s.handleLocked(loc.seg)
	if err != nil {
		return nil, err
	}
	// Decode copies what it keeps, so the payload is read into the
	// record buffer and cleared as soon as the block is decoded.
	payload := s.recordLocked(loc.n)
	defer s.releaseRecordLocked(loc.n)
	if _, err := f.ReadAt(payload, loc.off); err != nil {
		return nil, fmt.Errorf("segment: read block %d: %w", num, err)
	}
	return block.Decode(payload)
}

// Range implements chain.Store.
func (s *Store) Range() (uint64, uint64, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, 0, false, ErrClosed
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

// sortedNumbersLocked returns the indexed block numbers in ascending
// order. None is below the marker: a cut drops them from the index, and
// Open unlinks or refuses every segment holding one.
func (s *Store) sortedNumbersLocked() []uint64 {
	nums := make([]uint64, 0, len(s.index))
	for num := range s.index {
		nums = append(nums, num)
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	return nums
}

// Stream implements chain.Store: blocks are yielded in ascending order
// starting at the Genesis marker, so a restore replays only the live
// suffix — the marker block first, the paper's trusted anchor for the
// cut-off part (§IV-C). Each block is read and
// decoded lazily per yield (re-locking per read, so a concurrent Close
// is honoured mid-stream).
func (s *Store) Stream() iter.Seq2[*block.Block, error] {
	return func(yield func(*block.Block, error) bool) {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			yield(nil, ErrClosed)
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

// DeleteBelow is DeleteBelowRecord with a bare record: the marker
// shift [current marker, marker) and nothing else.
func (s *Store) DeleteBelow(marker uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deleteBelowLocked(marker, &manifestlog.Record{OldMarker: s.marker, NewMarker: marker})
}

// DeleteBelowRecord implements chain.Store: retire the cut prefix by
// unlinking the segments below the marker — one syscall each, however
// many blocks they held — after rec, the shift's deletion record, is
// durable. A segment never spans a sequence start (PutBlock), so at a
// marker the chain sets every segment lies wholly on one side; a marker
// inside a segment is refused before anything is made durable. It is
// the one place a sequence boundary pays for durability:
//
//  1. fsync the active segment, which holds the summary block Σ;
//  2. if Σ ended it (rollNext), start the next segment, so the append
//     after the boundary rolls nothing;
//  3. append rec to DELETIONS and fsync it: from here the marker is
//     durable, and a crash rolls forward to rec's marker;
//  4. unlink the cut segments;
//  5. rewrite MANIFEST once, whose directory fsync makes the unlinks and
//     the new segment's entry durable.
//
// Four fsyncs in all. The assigned manifest sequence number is written
// back into rec.
func (s *Store) DeleteBelowRecord(marker uint64, rec *manifestlog.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deleteBelowLocked(marker, rec)
}

func (s *Store) deleteBelowLocked(marker uint64, rec *manifestlog.Record) error {
	if s.closed {
		return ErrClosed
	}
	if marker < s.marker {
		return fmt.Errorf("segment: marker moving backwards: %d < %d", marker, s.marker)
	}
	for _, seg := range s.segs {
		if seg.straddles(marker) {
			return fmt.Errorf("segment: marker %d is not a segment boundary: segment %d holds blocks %d-%d", marker, seg.id, seg.first, seg.last)
		}
	}
	if err := s.syncActiveLocked(); err != nil {
		return fmt.Errorf("segment: sync before truncate: %w", err)
	}
	if s.rollNext && s.active().size > int64(len(segMagic)) {
		if err := s.startNextLocked(); err != nil {
			return err
		}
	}
	stored, err := s.del.Append(*rec)
	if err != nil {
		return err
	}
	s.fsyncs[syncDeletions].Add(1)
	rec.Seq = stored.Seq
	s.marker = marker
	for num, loc := range s.index {
		if num < marker {
			loc.seg.count--
			delete(s.index, num)
		}
	}
	// Build the surviving set in a fresh slice: a mid-loop failure (an
	// unlink error) must leave s.segs consistent — already-retired
	// segments gone, everything else intact — so Close/SizeBytes/the
	// manifest never see duplicates. The active segment goes too when
	// every record it holds was cut; an empty one stays.
	act := s.active()
	kept := make([]*segmentFile, 0, len(s.segs))
	for i, seg := range s.segs {
		if seg.count > 0 || seg == act && seg.size == int64(len(segMagic)) {
			kept = append(kept, seg)
			continue
		}
		if err := os.Remove(seg.path); err != nil && !os.IsNotExist(err) {
			s.segs = append(kept, s.segs[i:]...)
			return fmt.Errorf("segment: retire segment %d: %w", seg.id, err)
		}
		s.lruDrop(seg)
		if seg.f != nil {
			seg.f.Close()
			seg.f = nil
		}
	}
	s.segs = kept
	if len(s.segs) == 0 || s.active() != act {
		if err := s.startSegmentLocked(act.id + 1); err != nil {
			return err
		}
	}
	return s.writeManifestLocked()
}

// SizeBytes returns the physical size of every segment file — the
// number that visibly shrinks when deletion retires segments, which is
// the whole point (E4 measures it).
func (s *Store) SizeBytes() (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	var total int64
	for _, seg := range s.segs {
		total += seg.size
	}
	return total, nil
}

// Sync forces the active segment to stable storage, for callers that
// batch appends but want a durability point (group commit).
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.syncActiveLocked(); err != nil {
		return fmt.Errorf("segment: sync: %w", err)
	}
	return nil
}

// FsyncCount reports the number of fsyncs issued so far against
// segment data files, and against the store directory on its own (Sync
// after a segment was created). Marker metadata writes — a DELETIONS
// append, a MANIFEST rewrite and the directory fsync inside it — are
// excluded: the counter exists to measure append-path durability cost,
// where the segment data sync is the unit of work group commit
// amortizes. A sequence boundary's cut issues one of these and three
// metadata fsyncs; the append after it issues none.
func (s *Store) FsyncCount() uint64 {
	return s.fsyncs[syncSegment].Load() + s.fsyncs[syncDir].Load()
}

// SegmentCount returns the number of live segment files (observability
// for tests, examples and the repo benchmark).
func (s *Store) SegmentCount() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	return len(s.segs), nil
}

// Close syncs the active segment, persists the manifest, and releases
// every file handle.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.active().f.Sync()
	if err == nil {
		s.fsyncs[syncSegment].Add(1)
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

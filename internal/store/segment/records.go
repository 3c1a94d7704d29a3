package segment

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"github.com/seldel/seldel/internal/block"
)

// This file is the single definition of the on-disk record format: a
// fixed little-endian header (block number u64, payload length u32,
// payload CRC-32 u32) followed by the canonical block encoding. The
// append path (PutBlock), the compaction rewrite (rewriteSegmentLocked),
// the recovery scan (openSegment), and the read-only inspector
// (scanSegmentFile) all go through the helpers here — a record written
// by any of them must be recoverable by all of them.
//
// Every byte the store writes or reads goes through its one record
// buffer (Store.rec), used only under the store lock, and is sized once
// per use: a record from the block's exact encoded size (the block
// encodes in place after a reserved header, block.AppendEncode, and the
// header is backfilled), a block read (GetBlock) from its indexed
// payload length, and a recovery scan (scanSegment) from the segment
// file's size. Once a call is done with the bytes the used part is
// cleared, so the buffer never holds a payload past the call that wrote
// or read it, and a buffer grown past maxKeptRecordBytes is dropped
// instead of kept. Steady-state appends and reads therefore allocate
// nothing per record, a summary block costs one sized encode rather than
// a run of regrowths, and an open reads each segment file once, into a
// buffer that the next file reuses.

// maxKeptRecordBytes is the largest record buffer the store keeps
// between calls: a larger one, grown for one outsized block, is dropped
// after use so it does not stay pinned for the life of the store.
const maxKeptRecordBytes = 4 << 20

// recordLocked returns the store's record buffer resized to n bytes,
// reallocated only when its capacity is short. The caller hands the
// used length to releaseRecordLocked once it is done with the bytes.
func (s *Store) recordLocked(n int) []byte {
	s.rec = sized(s.rec, n)
	return s.rec
}

// sized returns buf resized to n bytes, reallocated only when its
// capacity is short.
func sized(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// releaseRecordLocked clears the first used bytes of the record buffer
// — a payload must not outlive the write or read in the store's heap —
// and drops a buffer grown past maxKeptRecordBytes.
func (s *Store) releaseRecordLocked(used int) {
	clear(s.rec[:used])
	if cap(s.rec) > maxKeptRecordBytes {
		s.rec = nil
	}
}

// appendBlockRecord encodes b, whose canonical encoding is n bytes
// (block.EncodedSize), as one complete on-disk record into the store's
// record buffer: the buffer is sized once, the block encodes directly
// behind the reserved header, and the header is backfilled from the
// finished payload. The record aliases the buffer until
// releaseRecordLocked.
func (s *Store) appendBlockRecord(b *block.Block, n int) []byte {
	rec := b.AppendEncode(s.recordLocked(recHeaderSize + n)[:recHeaderSize])
	fillRecordHeader(rec, b.Header.Number)
	return rec
}

// fillRecordHeader stamps the fixed header over rec's first bytes,
// deriving length and checksum from the payload that follows it.
func fillRecordHeader(rec []byte, num uint64) {
	payload := rec[recHeaderSize:]
	binary.LittleEndian.PutUint64(rec[0:8], num)
	binary.LittleEndian.PutUint32(rec[8:12], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[12:16], crc32.ChecksumIEEE(payload))
}

// parseRecord reads the record at the head of rest. The returned
// payload aliases rest — callers that retain it must copy. ok reports
// whether a complete, checksum-valid record was present; false marks a
// torn or corrupt tail and ends a scan.
func parseRecord(rest []byte) (num uint64, payload []byte, span int, ok bool) {
	if len(rest) < recHeaderSize {
		return 0, nil, 0, false
	}
	num = binary.LittleEndian.Uint64(rest[0:8])
	n := binary.LittleEndian.Uint32(rest[8:12])
	sum := binary.LittleEndian.Uint32(rest[12:16])
	if n > maxRecordBytes || len(rest) < recHeaderSize+int(n) {
		return 0, nil, 0, false
	}
	payload = rest[recHeaderSize : recHeaderSize+int(n)]
	if crc32.ChecksumIEEE(payload) != sum {
		return 0, nil, 0, false
	}
	return num, payload, recHeaderSize + int(n), true
}

// scanSegment reads the segment file f whole into buf(size), where size
// is what f.Stat reports — one read into a buffer sized once, never a
// run of regrowths — and hands each record that verifies to each, in
// file order, up to the first that does not. It returns the bytes read,
// which alias buf's result and hold every payload in the file, so the
// caller clears them once it is done, and good, the offset past the last
// record that verified: 0 when the file does not start with the segment
// magic.
func scanSegment(f *os.File, buf func(n int) []byte, each func(num uint64, off int64, n int)) (raw []byte, good int64, err error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	raw = buf(int(fi.Size()))
	n, err := f.ReadAt(raw, 0)
	if err != nil && err != io.EOF {
		return raw, 0, fmt.Errorf("read: %w", err)
	}
	raw = raw[:n]
	if len(raw) < len(segMagic) || string(raw[:len(segMagic)]) != segMagic {
		return raw, 0, nil
	}
	good = int64(len(segMagic))
	for {
		num, payload, span, ok := parseRecord(raw[good:])
		if !ok {
			return raw, good, nil // torn or corrupt tail
		}
		each(num, good+recHeaderSize, len(payload))
		good += int64(span)
	}
}

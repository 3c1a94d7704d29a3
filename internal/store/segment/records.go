package segment

import (
	"encoding/binary"
	"hash/crc32"

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
// Records are built in the store's one record buffer (Store.rec), used
// only under the store lock: it is sized once per record from the
// block's exact encoded size, the block encodes in place after a
// reserved header (block.AppendEncode), and the header is backfilled.
// Once the bytes are on disk the used part is cleared, so the buffer
// never holds a record's payloads past the call that wrote it, and a
// buffer grown past maxKeptRecordBytes is dropped instead of kept.
// Steady-state appends therefore allocate nothing per record, and a
// summary block costs one sized encode rather than a run of regrowths.

// maxKeptRecordBytes is the largest record buffer the store keeps
// between calls: a larger one, grown for one outsized block, is dropped
// after use so it does not stay pinned for the life of the store.
const maxKeptRecordBytes = 4 << 20

// recordLocked returns the store's record buffer resized to hold a
// record with an n-byte payload. The caller fills rec[recHeaderSize:],
// stamps the header with fillRecordHeader, and hands the used length to
// releaseRecordLocked once the bytes are written.
func (s *Store) recordLocked(n int) []byte {
	need := recHeaderSize + n
	if cap(s.rec) < need {
		s.rec = make([]byte, need)
	}
	return s.rec[:need]
}

// releaseRecordLocked clears the first used bytes of the record buffer
// — a record's payloads must not outlive the write in the store's heap
// — and drops a buffer grown past maxKeptRecordBytes.
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
	rec := b.AppendEncode(s.recordLocked(n)[:recHeaderSize])
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

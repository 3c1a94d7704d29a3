package manifest

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/codec"
)

// DecodeLine is decodeLine with a buffer of its own.
func DecodeLine(line []byte) (*Record, error) {
	var buf []byte
	r, err := decodeLine(line, &buf)
	if err != nil {
		return nil, err
	}
	return &r, nil
}

// Len returns the number of readable records.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}

func sampleRecord(seq, old, newMarker uint64) Record {
	return Record{
		Seq:          seq,
		OldMarker:    old,
		NewMarker:    newMarker,
		SummaryBlock: newMarker,
		SummaryHash:  codec.HashBytes([]byte{byte(newMarker)}),
		FirstCutHash: codec.HashBytes([]byte{byte(old)}),
		LastCutHash:  codec.HashBytes([]byte{byte(newMarker - 1)}),
		Time:         seq * 10,
		Tombstones: []Tombstone{{
			Target:        block.Ref{Block: old + 1, Entry: 0},
			Requester:     "alice",
			RequestRef:    block.Ref{Block: old + 2, Entry: 1},
			MarkedAtBlock: old + 2,
			EntryDigest:   codec.HashBytes([]byte("entry")),
			CoSigners:     []CoSigner{{Name: "bob", Signature: []byte{1, 2, 3}}},
		}},
	}
}

func TestLineRoundTrip(t *testing.T) {
	r := sampleRecord(3, 0, 6)
	r.Hydrated = true
	r.Tombstones = append(r.Tombstones, Tombstone{
		Target:    block.Ref{Block: 4, Entry: 7},
		Requester: "carol",
		CoSigners: []CoSigner{{Name: "dave", Signature: []byte{9}}, {Name: "erin", Signature: []byte{8, 7}}},
	})
	line := EncodeLine(&r)
	got, err := DecodeLine(line)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(*got, r) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", *got, r)
	}
	if again := EncodeLine(got); !bytes.Equal(again, line) {
		t.Fatalf("re-encoded line differs:\n%s%s", again, line)
	}
}

func TestDecodeLineRejectsCorruption(t *testing.T) {
	r := sampleRecord(1, 0, 3)
	line := EncodeLine(&r)
	// Flip one byte inside the body.
	bad := append([]byte(nil), line...)
	bad[len(bad)/2] ^= 0xff
	if _, err := DecodeLine(bad); err == nil {
		t.Fatal("corrupted body accepted")
	}
	if _, err := DecodeLine([]byte("short")); err == nil {
		t.Fatal("short line accepted")
	}
	if _, err := DecodeLine([]byte("zzzzzzzz {}")); err == nil {
		t.Fatal("bad crc prefix accepted")
	}
	// A record under an upper-case CRC is not the line EncodeLine wrote,
	// so it does not decode (the first CRC with a hex letter in it).
	for seq := uint64(1); ; seq++ {
		r := sampleRecord(seq, 0, 3)
		line := EncodeLine(&r)
		upper := append(bytes.ToUpper(line[:8]), line[8:]...)
		if bytes.Equal(upper, line) {
			continue
		}
		if _, err := DecodeLine(upper); !errors.Is(err, ErrBadLine) {
			t.Fatalf("upper-case crc prefix: err=%v, want ErrBadLine", err)
		}
		break
	}
}

// TestDecodeChecksCountsBeforeAllocating hands the decoder counts that
// claim far more elements than the bytes left could hold: each must be
// refused before its slice is allocated.
func TestDecodeChecksCountsBeforeAllocating(t *testing.T) {
	oneTomb := sampleRecord(1, 0, 3)
	oneTomb.Tombstones[0].CoSigners = nil
	raw := oneTomb.Encode()
	// The tombstone count sits after four uint64s, three hashes and Time.
	tombCount := 4*8 + 3*codec.HashSize + 8
	// The co-signer count is the last field of the lone tombstone,
	// followed only by the Hydrated byte.
	coCount := len(raw) - 1 - 4
	for _, at := range []int{tombCount, coCount} {
		bad := append([]byte(nil), raw...)
		binary.BigEndian.PutUint32(bad[at:], 1<<26)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeRecord(bad)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("count at offset %d: oversized count accepted", at)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Errorf("count at offset %d: decoder allocated %d bytes before refusing", at, grew)
		}
	}
}

// retiredLine builds a line the way the retired format's encoder did:
// the CRC-32 of the record's JSON, as 8 hex digits, a space, the JSON,
// a newline.
func retiredLine(r *Record) []byte {
	body, err := json.Marshal(r)
	if err != nil {
		panic(err) // a record is integers, strings and byte slices
	}
	return append(fmt.Appendf(nil, "%08x ", crc32.ChecksumIEEE(body)), append(body, '\n')...)
}

// TestRetiredFormatRefused: a log holding a line in the retired JSON
// format is refused by name by every reader, and left as it was, not
// salvaged around the line — skipping it would drop its tombstones.
func TestRetiredFormatRefused(t *testing.T) {
	dir := t.TempDir()
	r1, r2, r3 := sampleRecord(1, 0, 3), sampleRecord(2, 3, 6), sampleRecord(3, 6, 9)
	var data []byte
	data = append(data, EncodeLine(&r1)...)
	data = append(data, retiredLine(&r2)...)
	data = append(data, EncodeLine(&r3)...)
	data = append(data, "torn"...)
	for _, name := range []string{FileName, ArchiveName} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := DecodeLine(retiredLine(&r2)); !errors.Is(err, ErrRetiredFormat) {
		t.Fatalf("DecodeLine: err=%v, want ErrRetiredFormat", err)
	}
	if l, err := Open(dir); !errors.Is(err, ErrRetiredFormat) {
		if err == nil {
			l.Close()
		}
		t.Fatalf("Open: err=%v, want ErrRetiredFormat", err)
	}
	if recs, _, err := Read(dir); !errors.Is(err, ErrRetiredFormat) || recs != nil {
		t.Fatalf("Read: %d records, err=%v, want none and ErrRetiredFormat", len(recs), err)
	}
	if recs, _, err := ReadArchive(dir); !errors.Is(err, ErrRetiredFormat) || recs != nil {
		t.Fatalf("ReadArchive: %d records, err=%v, want none and ErrRetiredFormat", len(recs), err)
	}
	// The refused Open repaired nothing: the torn tail is still there.
	if got, err := os.ReadFile(filepath.Join(dir, FileName)); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("refused log was modified (err=%v)", err)
	}
}

func TestLogAppendAndReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := uint64(1); i <= 3; i++ {
		if _, err := l.Append(sampleRecord(0, (i-1)*3, i*3)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if l.Len() != 3 {
		t.Fatalf("len = %d, want 3", l.Len())
	}
	head, ok := l.Head()
	if !ok || head.Seq != 3 || head.NewMarker != 9 {
		t.Fatalf("head = %+v ok=%v", head, ok)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	l2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if len(l2.Warnings()) != 0 {
		t.Fatalf("clean log has warnings: %v", l2.Warnings())
	}
	recs := l2.Records()
	if len(recs) != 3 || recs[0].Seq != 1 || recs[2].Seq != 3 {
		t.Fatalf("records after reopen: %+v", recs)
	}
	// Sequence numbering continues where it left off.
	r, err := l2.Append(sampleRecord(0, 9, 12))
	if err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	if r.Seq != 4 {
		t.Fatalf("seq after reopen = %d, want 4", r.Seq)
	}
}

func TestOpenSkipsCorruptInteriorLine(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := uint64(1); i <= 3; i++ {
		if _, err := l.Append(sampleRecord(0, (i-1)*3, i*3)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	l.Close()

	// Corrupt the middle line in place, keeping its length and newline.
	path := filepath.Join(dir, FileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	mid := lines[1]
	mid[len(mid)/2] ^= 0xff
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}

	l2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if l2.Len() != 2 {
		t.Fatalf("len = %d, want 2 (middle skipped)", l2.Len())
	}
	warns := l2.Warnings()
	if len(warns) != 1 || !strings.Contains(warns[0], "line 2") {
		t.Fatalf("warnings = %v", warns)
	}
	head, _ := l2.Head()
	if head.Seq != 3 {
		t.Fatalf("head seq = %d, want 3", head.Seq)
	}
}

func TestOpenTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := l.Append(sampleRecord(0, 0, 3)); err != nil {
		t.Fatalf("append: %v", err)
	}
	l.Close()

	// Simulate a crash mid-append: half a record, no newline.
	path := filepath.Join(dir, FileName)
	full := EncodeLine(&Record{Seq: 2, OldMarker: 3, NewMarker: 6})
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open for torn write: %v", err)
	}
	if _, err := f.Write(full[:len(full)/2]); err != nil {
		t.Fatalf("torn write: %v", err)
	}
	f.Close()

	l2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if l2.Len() != 1 {
		t.Fatalf("len = %d, want 1", l2.Len())
	}
	if warns := l2.Warnings(); len(warns) != 1 || !strings.Contains(warns[0], "torn tail") {
		t.Fatalf("warnings = %v", warns)
	}
	// Appending after recovery lands on a clean line boundary.
	if _, err := l2.Append(sampleRecord(0, 3, 6)); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	l2.Close()
	l3, err := Open(dir)
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	defer l3.Close()
	if l3.Len() != 2 || len(l3.Warnings()) != 0 {
		t.Fatalf("after recovery: len=%d warnings=%v", l3.Len(), l3.Warnings())
	}
}

func TestRewriteAndArchive(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	for i := uint64(1); i <= 3; i++ {
		if _, err := l.Append(sampleRecord(0, (i-1)*3, i*3)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	recs := l.Records()
	applied, head := recs[:2], recs[2:]
	if err := AppendToArchive(dir, applied); err != nil {
		t.Fatalf("archive: %v", err)
	}
	if err := l.Rewrite(head); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if l.Len() != 1 {
		t.Fatalf("len after rewrite = %d", l.Len())
	}
	// Sequence counter must not regress after archiving.
	r, err := l.Append(sampleRecord(0, 9, 12))
	if err != nil {
		t.Fatalf("append after rewrite: %v", err)
	}
	if r.Seq != 4 {
		t.Fatalf("seq after rewrite = %d, want 4", r.Seq)
	}
	arch, warns, err := ReadArchive(dir)
	if err != nil || len(warns) != 0 {
		t.Fatalf("read archive: %v %v", err, warns)
	}
	if len(arch) != 2 || arch[0].Seq != 1 || arch[1].Seq != 2 {
		t.Fatalf("archive contents: %+v", arch)
	}
}

func TestCoversAndFindTombstone(t *testing.T) {
	r := sampleRecord(1, 3, 9)
	for _, ts := range r.Tombstones {
		if ts.Target.Block < r.OldMarker || ts.Target.Block >= r.NewMarker {
			t.Fatalf("tombstone %s outside the covered range [%d, %d)", ts.Target, r.OldMarker, r.NewMarker)
		}
	}
	if _, ok := r.FindTombstone(block.Ref{Block: 4, Entry: 0}); !ok {
		t.Fatal("tombstone not found")
	}
	if _, ok := r.FindTombstone(block.Ref{Block: 4, Entry: 9}); ok {
		t.Fatal("phantom tombstone found")
	}
}

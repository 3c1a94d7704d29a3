package segment

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/identity"
	manifestlog "github.com/seldel/seldel/internal/manifest"
)

// TestRecordBufferHoldsNoRecord checks the heap side of erasure for the
// store's record buffer: after an append, after a truncation whose
// boundary rewrite copies a summary block through the buffer, after an
// Open whose scan reads the segment holding that summary into it, and
// after a GetBlock that reads the summary itself, no byte of the
// summary's carried payloads is left in it, up to its capacity.
func TestRecordBufferHoldsNoRecord(t *testing.T) {
	magic := []byte("planted-carried-payload-7f3a")
	kp := identity.Deterministic("alpha", "segment-test")
	carried := make([]block.CarriedEntry, 24)
	for i := range carried {
		payload := append(bytes.Repeat([]byte{'x'}, 200), magic...)
		carried[i] = block.CarriedEntry{
			OriginBlock: 1, OriginTime: 1, EntryNumber: uint32(i),
			Entry: block.NewData("alpha", payload).Sign(kp),
		}
	}
	dir := t.TempDir()
	s := open(t, dir, Options{})
	defer func() { s.Close() }()
	holdsNoMagic := func(after string) {
		t.Helper()
		if buf := s.RecordBufferForTest(); bytes.Contains(buf, magic) {
			t.Fatalf("after %s the record buffer (cap %d) still holds a carried payload", after, len(buf))
		}
	}
	var prev *block.Block
	for num := uint64(0); num < 12; num++ {
		b := testBlock(t, num, prev)
		if num == 7 {
			b = block.NewSummary(num, prev.Header.Time, prev.Hash(), carried, nil)
		}
		if err := s.PutBlock(b); err != nil {
			t.Fatal(err)
		}
		holdsNoMagic(fmt.Sprintf("PutBlock(%d)", num))
		prev = b
	}
	if n, err := s.SegmentCount(); err != nil || n != 1 {
		t.Fatalf("%d segments (%v): the truncation below must rewrite the one segment holding the summary", n, err)
	}
	if err := s.DeleteBelowRecord(4, &manifestlog.Record{NewMarker: 4}); err != nil {
		t.Fatal(err)
	}
	holdsNoMagic("the boundary rewrite")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = open(t, dir, Options{})
	if len(s.RecordBufferForTest()) == 0 {
		t.Fatal("Open read no segment through the record buffer: the check below proves nothing")
	}
	holdsNoMagic("Open's scan")
	sigma, err := s.GetBlock(7)
	if err != nil {
		t.Fatal(err)
	}
	holdsNoMagic("GetBlock(7)")
	if !bytes.Contains(sigma.Carried[0].Entry.Payload, magic) {
		t.Fatal("the rewrite did not keep the summary: the checks above prove nothing")
	}
}

// TestOversizedRecordRollsOnce pins the roll rule: a segment rolls on
// the first append after it has reached SegmentBytes, so a record
// larger than a segment shares its predecessors' segment and costs one
// roll (one fsync), not one before it and one after.
func TestOversizedRecordRollsOnce(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{SegmentBytes: 1024})
	kp := identity.Deterministic("alpha", "segment-test")
	before := s.FsyncCount()
	var blocks []*block.Block
	var prev *block.Block
	for num := uint64(0); num < 4; num++ {
		b := testBlock(t, num, prev)
		if num == 2 {
			big := block.NewData("alpha", bytes.Repeat([]byte{'b'}, 4096)).Sign(kp)
			b = block.NewNormal(num, prev.Header.Time+1, prev.Hash(), []*block.Entry{big})
		}
		if err := s.PutBlock(b); err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
		prev = b
	}
	if rolls := s.FsyncCount() - before; rolls != 1 {
		t.Errorf("%d fsyncs for small, small, 4 KiB, small at 1 KiB segments; want one roll", rolls)
	}
	if n, err := s.SegmentCount(); err != nil || n != 2 {
		t.Errorf("%d segments (%v), want 2", n, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir, Options{SegmentBytes: 1024})
	defer s2.Close()
	i := 0
	for b, err := range s2.Stream() {
		if err != nil {
			t.Fatal(err)
		}
		if i >= len(blocks) || b.Hash() != blocks[i].Hash() {
			t.Fatalf("reopened stream block %d is not block %d as put", b.Header.Number, i)
		}
		i++
	}
	if i != len(blocks) {
		t.Fatalf("reopened store streams %d blocks, want %d", i, len(blocks))
	}
}

// TestOpenAllocatesOneSegment prices Open's recovery scan in bytes
// allocated, which no machine changes: opening a directory of seven
// segments of about 1 MiB allocates less than twice its largest file.
// The scan reads every file into the store's record buffer, sized once
// from the file's size and reused by the next file; reading each file
// with io.ReadAll, which starts at 512 bytes and regrows by append,
// allocated about five times the sum of the files.
func TestOpenAllocatesOneSegment(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	kp := identity.Deterministic("alpha", "segment-test")
	var prev *block.Block
	for num := uint64(0); num < 100; num++ {
		b := testBlock(t, num, prev)
		if num > 0 {
			e := block.NewData("alpha", bytes.Repeat([]byte{byte(num)}, 64<<10)).Sign(kp)
			b = block.NewNormal(num, prev.Header.Time+1, prev.Hash(), []*block.Entry{e})
		}
		if err := s.PutBlock(b); err != nil {
			t.Fatal(err)
		}
		prev = b
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	var largest, total int64
	for _, p := range segs {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		largest, total = max(largest, fi.Size()), total+fi.Size()
	}
	if len(segs) < 6 || largest < DefaultSegmentBytes {
		t.Fatalf("fixture too weak: %d segments, the largest %d bytes", len(segs), largest)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err = Open(dir, Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got := after.TotalAlloc - before.TotalAlloc
	if float64(got) >= 2*float64(largest) {
		t.Errorf("Open of %d segments (%d bytes, the largest %d) allocated %d bytes, want under twice the largest", len(segs), total, largest, got)
	}
	t.Logf("Open of %d segments (%d bytes, the largest %d) allocated %d bytes: %.2f× the largest, %.2f× the sum",
		len(segs), total, largest, got, float64(got)/float64(largest), float64(got)/float64(total))
}

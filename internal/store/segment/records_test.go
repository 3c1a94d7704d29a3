package segment

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/identity"
	manifestlog "github.com/seldel/seldel/internal/manifest"
)

// TestRecordBufferHoldsNoRecord checks the heap side of erasure for the
// store's record buffer: after an append and after a truncation whose
// boundary rewrite copies a summary block through the buffer, no byte
// of that summary's carried payloads is left in it, up to its capacity.
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
	s := open(t, t.TempDir(), Options{})
	defer s.Close()
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
	sigma, err := s.GetBlock(7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(sigma.Carried[0].Entry.Payload, magic) {
		t.Fatal("the rewrite did not keep the summary: the check above proves nothing")
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

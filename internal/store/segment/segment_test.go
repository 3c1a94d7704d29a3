package segment

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/simclock"
	"github.com/seldel/seldel/internal/store"
)

// testBlock builds a hash-linked normal block for store-level tests.
func testBlock(t *testing.T, num uint64, prev *block.Block) *block.Block {
	t.Helper()
	kp := identity.Deterministic("alpha", "segment-test")
	e := block.NewData("alpha", []byte(fmt.Sprintf("payload-%d", num))).Sign(kp)
	prevHash := block.GenesisPrevHash
	var prevTime uint64
	if prev != nil {
		prevHash = prev.Hash()
		prevTime = prev.Header.Time
	}
	return block.NewNormal(num, prevTime+1, prevHash, []*block.Entry{e})
}

// fill puts blocks 0..n-1 and returns them.
func fill(t *testing.T, s *Store, n int) []*block.Block {
	t.Helper()
	var blocks []*block.Block
	var prev *block.Block
	for num := uint64(0); num < uint64(n); num++ {
		b := testBlock(t, num, prev)
		blocks = append(blocks, b)
		prev = b
		if err := s.PutBlock(b); err != nil {
			t.Fatalf("PutBlock(%d): %v", num, err)
		}
	}
	return blocks
}

func open(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestStoreContract(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	defer s.Close()
	if _, _, ok, err := s.Range(); err != nil || ok {
		t.Fatalf("fresh store Range = ok=%v err=%v", ok, err)
	}
	blocks := fill(t, s, 6)
	first, last, ok, err := s.Range()
	if err != nil || !ok || first != 0 || last != 5 {
		t.Fatalf("Range = %d..%d ok=%v err=%v", first, last, ok, err)
	}
	got, err := s.GetBlock(3)
	if err != nil {
		t.Fatalf("GetBlock: %v", err)
	}
	if got.Hash() != blocks[3].Hash() {
		t.Error("round-tripped block hash differs")
	}
	if _, err := s.GetBlock(99); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("GetBlock(99) = %v, want ErrNotFound", err)
	}
	sizeBefore, err := s.SizeBytes()
	if err != nil || sizeBefore <= 0 {
		t.Fatalf("SizeBytes = %d, %v", sizeBefore, err)
	}
	if err := s.DeleteBelow(3); err != nil {
		t.Fatalf("DeleteBelow: %v", err)
	}
	if _, err := s.GetBlock(2); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("block 2 survived truncation: %v", err)
	}
	if _, err := s.GetBlock(3); err != nil {
		t.Errorf("block 3 deleted by truncation: %v", err)
	}
	sizeAfter, err := s.SizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if sizeAfter >= sizeBefore {
		t.Errorf("no space reclaimed: %d -> %d", sizeBefore, sizeAfter)
	}
	var streamed []*block.Block
	for b, err := range s.Stream() {
		if err != nil {
			t.Fatalf("Stream: %v", err)
		}
		streamed = append(streamed, b)
	}
	if len(streamed) != 3 || streamed[0].Header.Number != 3 {
		t.Fatalf("Stream yielded %d blocks starting at %d, want 3 starting at 3",
			len(streamed), streamed[0].Header.Number)
	}
	if m, err := s.Marker(); err != nil || m != 3 {
		t.Fatalf("Marker = %d, %v; want 3", m, err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.PutBlock(blocks[5]); !errors.Is(err, store.ErrClosed) {
		t.Errorf("PutBlock after Close = %v, want ErrClosed", err)
	}
}

func TestSegmentRollAndPhysicalRetirement(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every couple of blocks rolls a new file, so a
	// truncation retires whole segments.
	s := open(t, dir, Options{SegmentBytes: 512})
	defer s.Close()
	fill(t, s, 24)
	segsBefore, err := s.SegmentCount()
	if err != nil {
		t.Fatal(err)
	}
	if segsBefore < 4 {
		t.Fatalf("expected several segments, got %d", segsBefore)
	}
	sizeBefore, _ := s.SizeBytes()
	if err := s.DeleteBelow(18); err != nil {
		t.Fatalf("DeleteBelow: %v", err)
	}
	segsAfter, _ := s.SegmentCount()
	if segsAfter >= segsBefore {
		t.Errorf("no segments retired: %d -> %d", segsBefore, segsAfter)
	}
	sizeAfter, _ := s.SizeBytes()
	if sizeAfter >= sizeBefore {
		t.Errorf("no bytes reclaimed: %d -> %d", sizeBefore, sizeAfter)
	}
	// The boundary segment was rewritten: everything >= 18 survives.
	for num := uint64(18); num < 24; num++ {
		if _, err := s.GetBlock(num); err != nil {
			t.Errorf("GetBlock(%d) after boundary rewrite: %v", num, err)
		}
	}
}

func TestReopenPreservesBlocksAndMarker(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{SegmentBytes: 512})
	blocks := fill(t, s, 12)
	if err := s.DeleteBelow(6); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir, Options{SegmentBytes: 512})
	defer s2.Close()
	if m, err := s2.Marker(); err != nil || m != 6 {
		t.Fatalf("reopened Marker = %d, %v; want 6", m, err)
	}
	first, last, ok, err := s2.Range()
	if err != nil || !ok || first != 6 || last != 11 {
		t.Fatalf("reopened Range = %d..%d ok=%v err=%v", first, last, ok, err)
	}
	got, err := s2.GetBlock(9)
	if err != nil || got.Hash() != blocks[9].Hash() {
		t.Fatalf("reopened GetBlock(9) = %v (hash match=%v)", err, err == nil && got.Hash() == blocks[9].Hash())
	}
}

func TestPutBlockSupersedes(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	defer s.Close()
	blocks := fill(t, s, 3)
	// Re-put block 2 with different content: the index must resolve to
	// the newest record.
	kp := identity.Deterministic("alpha", "segment-test")
	e := block.NewData("alpha", []byte("superseded")).Sign(kp)
	replacement := block.NewNormal(2, blocks[1].Header.Time+1, blocks[1].Hash(), []*block.Entry{e})
	if err := s.PutBlock(replacement); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetBlock(2)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Entries[0].Payload) != "superseded" {
		t.Errorf("GetBlock(2) returned stale record: %q", got.Entries[0].Payload)
	}
}

// TestChainLifecycleOnSegmentStore is the end-to-end acceptance test:
// a retention-bounded chain mirrored into a segment store truncates,
// the store's physical size shrinks, the store's marker follows the
// chain's, and a restore replays only the post-marker live suffix.
func TestChainLifecycleOnSegmentStore(t *testing.T) {
	dir := t.TempDir()
	reg := identity.NewRegistry()
	kp := identity.Deterministic("writer", "segment-lifecycle")
	if err := reg.RegisterKey(kp, identity.RoleUser); err != nil {
		t.Fatal(err)
	}
	cfg := chain.Config{
		SequenceLength: 3,
		MaxSequences:   2,
		Registry:       reg,
		Clock:          simclock.NewLogical(0),
	}
	s := open(t, dir, Options{SegmentBytes: 1024})
	c, err := store.Open(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Entries are deleted a beat after they are written: without
	// deletion requests every entry would migrate into each summary
	// block Σ and the live chain (hence the store) would grow forever —
	// the paper's point is that deletion is what bounds it.
	shrankOnce := false
	prevSize := int64(0)
	for i := 0; i < 40; i++ {
		e := block.NewData("writer", []byte(fmt.Sprintf("entry-%02d", i))).Sign(kp)
		sealed, err := c.SubmitWait(ctx, e)
		if err != nil {
			t.Fatalf("SubmitWait(%d): %v", i, err)
		}
		if _, err := c.SubmitWait(ctx, block.NewDeletion("writer", sealed[0].Ref).Sign(kp)); err != nil {
			t.Fatalf("delete(%d): %v", i, err)
		}
		if err := c.CompactWait(ctx); err != nil {
			t.Fatal(err)
		}
		sz, err := s.SizeBytes()
		if err != nil {
			t.Fatal(err)
		}
		if prevSize > 0 && sz < prevSize {
			shrankOnce = true
		}
		prevSize = sz
	}
	marker := c.Marker()
	if marker == 0 {
		t.Fatal("chain never truncated; retention config broken")
	}
	if !shrankOnce {
		t.Error("SizeBytes never decreased across truncations")
	}
	if m, err := s.Marker(); err != nil || m != marker {
		t.Errorf("store marker %d (%v) != chain marker %d", m, err, marker)
	}
	headHash := c.HeadHash()
	liveBlocks := c.Len()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, Options{SegmentBytes: 1024})
	defer s2.Close()
	c2, err := store.Open(cfg, s2)
	if err != nil {
		t.Fatalf("restore from segment store: %v", err)
	}
	defer c2.Close()
	if c2.HeadHash() != headHash {
		t.Error("restored head hash differs")
	}
	if c2.Marker() != marker {
		t.Errorf("restored marker %d, want %d", c2.Marker(), marker)
	}
	// Restore-from-snapshot replays only the live suffix: the restored
	// chain's appended-block counter equals the live block count, not
	// the full history.
	if got := c2.Stats().AppendedBlocks; got != uint64(liveBlocks) {
		t.Errorf("restore replayed %d blocks, want live suffix %d", got, liveBlocks)
	}
	if err := c2.VerifyIntegrity(); err != nil {
		t.Errorf("restored chain integrity: %v", err)
	}
}

func TestReadHandleLRUCapsOpenFiles(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force many files; a cap of 2 sealed handles means at
	// most 3 descriptors (active + 2) no matter how many segments exist.
	defer func(n int) { maxOpenFiles = n }(maxOpenFiles)
	maxOpenFiles = 2
	s := open(t, dir, Options{SegmentBytes: 256})
	defer s.Close()
	blocks := fill(t, s, 40)
	segsN, err := s.SegmentCount()
	if err != nil {
		t.Fatal(err)
	}
	if segsN < 5 {
		t.Fatalf("only %d segments; shrink SegmentBytes to make the test meaningful", segsN)
	}
	checkCap := func(when string) {
		t.Helper()
		open, err := s.OpenHandles()
		if err != nil {
			t.Fatal(err)
		}
		if open > 3 {
			t.Errorf("%s: %d handles open, want <= 3 (active + 2 sealed)", when, open)
		}
	}
	checkCap("after appends")
	// Random-access reads across every segment reopen evicted handles
	// transparently and stay under the cap.
	for _, want := range blocks {
		got, err := s.GetBlock(want.Header.Number)
		if err != nil {
			t.Fatalf("GetBlock(%d): %v", want.Header.Number, err)
		}
		if got.Hash() != want.Hash() {
			t.Errorf("block %d corrupted by handle eviction", want.Header.Number)
		}
	}
	checkCap("after random reads")
	// Stream crosses every segment too.
	n := 0
	for b, err := range s.Stream() {
		if err != nil {
			t.Fatal(err)
		}
		if b.Hash() != blocks[n].Hash() {
			t.Errorf("stream block %d differs", n)
		}
		n++
	}
	checkCap("after Stream")

	// Truncation (snapshot write reads the checkpoint block) and the
	// boundary rewrite work with evicted handles too.
	if err := s.DeleteBelow(21); err != nil {
		t.Fatalf("DeleteBelow: %v", err)
	}
	checkCap("after truncation")
	if _, err := s.GetBlock(21); err != nil {
		t.Fatalf("read after truncation: %v", err)
	}

	// Reopen: recovery scans every segment but releases handles beyond
	// the cap before returning.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir, Options{SegmentBytes: 256})
	defer s2.Close()
	open2, err := s2.OpenHandles()
	if err != nil {
		t.Fatal(err)
	}
	if open2 > 3 {
		t.Errorf("after reopen: %d handles open, want <= 3", open2)
	}
	if _, err := s2.GetBlock(39); err != nil {
		t.Fatalf("read after reopen: %v", err)
	}
}

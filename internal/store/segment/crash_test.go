package segment

// Crash-recovery tests: each test produces a durable store state, then
// corrupts the directory the way a crash at a specific point would
// (torn record tail mid-append, stale segments mid-truncate, manifest
// out of step with the segment files) and asserts that Open recovers
// to the last durable block — never resurrecting cut blocks and never
// serving a partially written record.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/simclock"
	"github.com/seldel/seldel/internal/store"
)

// lastSegmentPath returns the path of the highest-numbered segment file.
func lastSegmentPath(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := ""
	for _, e := range entries {
		if _, ok := parseSegmentName(e.Name()); ok && e.Name() > last {
			last = e.Name()
		}
	}
	if last == "" {
		t.Fatal("no segment files on disk")
	}
	return filepath.Join(dir, last)
}

// liveNumbers streams the store and returns the block numbers served.
func liveNumbers(t *testing.T, s *Store) []uint64 {
	t.Helper()
	var nums []uint64
	for b, err := range s.Stream() {
		if err != nil {
			t.Fatalf("Stream: %v", err)
		}
		nums = append(nums, b.Header.Number)
	}
	return nums
}

func TestRecoverTornRecordTail(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	fill(t, s, 8)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash mid-append: a record header promising more payload than was
	// ever written lands at the tail of the active segment.
	path := lastSegmentPath(t, dir)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := make([]byte, recHeaderSize+10)
	torn[8] = 200 // length field promises 200 payload bytes; only 10 follow
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := open(t, dir, Options{})
	defer s2.Close()
	nums := liveNumbers(t, s2)
	if len(nums) != 8 || nums[len(nums)-1] != 7 {
		t.Fatalf("recovered %v, want blocks 0..7", nums)
	}
	// The torn tail must be physically gone so the next append lands on
	// a clean boundary.
	b := testBlock(t, 8, nil)
	b8 := block.NewNormal(8, b.Header.Time, b.Header.PrevHash, b.Entries)
	if err := s2.PutBlock(b8); err != nil {
		t.Fatalf("PutBlock after torn-tail recovery: %v", err)
	}
	if _, err := s2.GetBlock(8); err != nil {
		t.Fatalf("GetBlock(8): %v", err)
	}
}

func TestRecoverCorruptPayloadChecksum(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	fill(t, s, 5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the LAST record's payload: the checksum mismatch
	// must cut the recovered segment back to the previous record.
	path := lastSegmentPath(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir, Options{})
	defer s2.Close()
	nums := liveNumbers(t, s2)
	if len(nums) != 4 || nums[len(nums)-1] != 3 {
		t.Fatalf("recovered %v, want blocks 0..3 (corrupt block 4 dropped)", nums)
	}
}

// TestRecoverInterruptedTruncation simulates a crash after the
// truncation's durable point (snapshot + manifest carry the new marker)
// but before the file surgery: the retired segment files are still on
// disk. Open must complete the deletion instead of resurrecting the cut
// blocks.
func TestRecoverInterruptedTruncation(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{SegmentBytes: 512})
	fill(t, s, 24)
	// Keep a pre-truncation copy of every segment file.
	preFiles := map[string][]byte{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if _, ok := parseSegmentName(e.Name()); ok {
			raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			preFiles[e.Name()] = raw
		}
	}
	if err := s.DeleteBelow(15); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// "Un-delete" the segment files: manifest and snapshot stay at
	// marker 15, but the directory looks like the unlinks never hit
	// the disk.
	for name, raw := range preFiles {
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2 := open(t, dir, Options{SegmentBytes: 512})
	defer s2.Close()
	if m, err := s2.Marker(); err != nil || m != 15 {
		t.Fatalf("recovered marker = %d, %v; want 15", m, err)
	}
	nums := liveNumbers(t, s2)
	if len(nums) == 0 || nums[0] != 15 || nums[len(nums)-1] != 23 {
		t.Fatalf("recovered %v, want 15..23 (cut blocks must not resurrect)", nums)
	}
	// The stale segments must be physically gone again.
	for name := range preFiles {
		id, _ := parseSegmentName(name)
		if _, statErr := os.Stat(filepath.Join(dir, name)); statErr == nil {
			// Still on disk: acceptable only if it holds live blocks.
			found := false
			s2.mu.Lock()
			for _, seg := range s2.segs {
				if seg.id == id {
					found = true
				}
			}
			s2.mu.Unlock()
			if !found {
				t.Errorf("stale segment %s survived recovery", name)
			}
		}
	}
}

// TestRecoverManifestMissing loses the MANIFEST entirely: the snapshot
// checkpoint is the fallback marker record, so cut blocks still must
// not resurrect.
func TestRecoverManifestMissing(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{SegmentBytes: 512})
	fill(t, s, 20)
	if err := s.DeleteBelow(12); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir, Options{SegmentBytes: 512})
	defer s2.Close()
	if m, err := s2.Marker(); err != nil || m != 12 {
		t.Fatalf("marker after manifest loss = %d, %v; want 12 (from snapshot)", m, err)
	}
	nums := liveNumbers(t, s2)
	if nums[0] != 12 || nums[len(nums)-1] != 19 {
		t.Fatalf("recovered %v, want 12..19", nums)
	}
}

// TestCorruptSnapshotFailsLoudly: a bit-rotted SNAPSHOT is a durable
// marker record that can no longer be trusted — Open must fail instead
// of silently falling back to a marker that may resurrect cut blocks.
func TestCorruptSnapshotFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{SegmentBytes: 512})
	fill(t, s, 20)
	if err := s.DeleteBelow(12); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, snapshotName)
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(snapPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// Worst case: the manifest is gone too, so the snapshot would have
	// been the only marker record.
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{SegmentBytes: 512}); err == nil {
		t.Fatal("Open succeeded on a corrupt snapshot")
	}
}

// TestRecoverAdoptsUnlistedSegment: a segment file created right before
// a crash (roll happened, manifest write did not) is adopted on Open.
func TestRecoverAdoptsUnlistedSegment(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{SegmentBytes: 512})
	fill(t, s, 10)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Rewrite the manifest without its last segment line — as if the
	// roll's manifest update never became durable.
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	segLines := 0
	for _, l := range lines {
		if strings.HasPrefix(l, "segment ") {
			segLines++
		}
	}
	if segLines < 2 {
		t.Fatalf("need >=2 segments for this test, got %d", segLines)
	}
	trimmed := strings.Join(lines[:len(lines)-1], "\n") + "\n"
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(trimmed), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir, Options{SegmentBytes: 512})
	defer s2.Close()
	nums := liveNumbers(t, s2)
	if len(nums) != 10 || nums[len(nums)-1] != 9 {
		t.Fatalf("recovered %v, want 0..9 (unlisted segment adopted)", nums)
	}
}

// TestMissingLiveSegmentFails: a manifest-listed segment holding LIVE
// blocks that vanished from disk is unrecoverable data loss and must
// fail Open loudly, not silently serve a gapped chain.
func TestMissingLiveSegmentFails(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{SegmentBytes: 512})
	fill(t, s, 20)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Remove the FIRST segment (live blocks: marker is 0).
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	firstSeg := ""
	for _, e := range entries {
		if _, ok := parseSegmentName(e.Name()); ok && (firstSeg == "" || e.Name() < firstSeg) {
			firstSeg = e.Name()
		}
	}
	if err := os.Remove(filepath.Join(dir, firstSeg)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{SegmentBytes: 512}); err == nil {
		t.Fatal("Open succeeded despite a missing live segment")
	}
}

// TestRestoreAfterTornTailOnChain drives the full stack: a chain
// mirrored into a segment store crashes mid-append (torn tail), and the
// reopened chain restores exactly the durable prefix.
func TestRestoreAfterTornTailOnChain(t *testing.T) {
	dir := t.TempDir()
	reg := identity.NewRegistry()
	kp := identity.Deterministic("writer", "crash-chain")
	if err := reg.RegisterKey(kp, identity.RoleUser); err != nil {
		t.Fatal(err)
	}
	cfg := chain.Config{
		SequenceLength: 3,
		Registry:       reg,
		Clock:          simclock.NewLogical(0),
	}
	s := open(t, dir, Options{})
	c, err := chain.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Attach(c, s); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 7; i++ {
		e := block.NewData("writer", []byte(fmt.Sprintf("e-%d", i))).Sign(kp)
		if _, err := c.SubmitWait(ctx, e); err != nil {
			t.Fatal(err)
		}
	}
	headBefore := c.Head().Number
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: chop bytes off the last record so the final block
	// fails its checksum.
	path := lastSegmentPath(t, dir)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-5); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir, Options{})
	defer s2.Close()
	c2, err := store.Open(cfg, s2)
	if err != nil {
		t.Fatalf("restore after torn tail: %v", err)
	}
	defer c2.Close()
	if got := c2.Head().Number; got != headBefore-1 {
		t.Errorf("restored head %d, want last durable block %d", got, headBefore-1)
	}
	if err := c2.VerifyIntegrity(); err != nil {
		t.Errorf("restored chain integrity: %v", err)
	}
}

// TestGroupCommitCrashSemantics pins the group-commit receipt contract
// across a crash: receipts that resolved durable name only blocks the
// disk actually has, and blocks lost with the unsynced tail never
// resolved a receipt. The test interposes on the store's Sync so it can
// hold the group fsync in flight, crash it, and then cut the segment
// file back to the last completed sync — the state a real power cut
// between seal and fsync leaves behind.
func TestGroupCommitCrashSemantics(t *testing.T) {
	dir := t.TempDir()
	reg := identity.NewRegistry()
	kp := identity.Deterministic("writer", "group-crash")
	if err := reg.RegisterKey(kp, identity.RoleUser); err != nil {
		t.Fatal(err)
	}
	ss := open(t, dir, Options{})

	var (
		gateMu  sync.Mutex
		hold    chan struct{} // non-nil: syncs block until it closes
		crashed error         // non-nil: syncs fail without touching the disk
		syncs   int
	)
	syncFn := func() error {
		gateMu.Lock()
		h := hold
		gateMu.Unlock()
		if h != nil {
			<-h
		}
		gateMu.Lock()
		err := crashed
		if err == nil {
			syncs++
		}
		gateMu.Unlock()
		if err != nil {
			return err
		}
		return ss.Sync()
	}

	cfg := chain.Config{
		SequenceLength: 100,
		Registry:       reg,
		Clock:          simclock.NewLogical(0),
		Durability: chain.Durability{
			Mode: chain.DurabilityGroup,
			Sync: syncFn,
		},
	}
	c, err := chain.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Attach(c, ss); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Phase A: in group mode a resolved receipt means the block's bytes
	// were fsynced, so everything sealed here must survive the crash.
	for i := 0; i < 5; i++ {
		e := block.NewData("writer", []byte(fmt.Sprintf("durable-%d", i))).Sign(kp)
		if _, err := c.SubmitWait(ctx, e); err != nil {
			t.Fatal(err)
		}
	}
	gateMu.Lock()
	phaseASyncs := syncs
	gateMu.Unlock()
	if phaseASyncs == 0 {
		t.Fatal("group receipts resolved without any sync")
	}
	headDurable := c.Head().Number
	segPath := lastSegmentPath(t, dir)
	info, err := os.Stat(segPath)
	if err != nil {
		t.Fatal(err)
	}
	durableSize := info.Size()

	// Phase B: hold the group fsync and submit. The block seals and its
	// record lands in the segment file, but the receipt must stay
	// pending — sealed is not durable under DurabilityGroup.
	gateMu.Lock()
	hold = make(chan struct{})
	gateMu.Unlock()
	lost := block.NewData("writer", []byte("lost-in-crash")).Sign(kp)
	receipts, err := c.Submit(ctx, lost)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Head().Number == headDurable {
		if time.Now().After(deadline) {
			t.Fatal("block never sealed while the sync was held")
		}
		time.Sleep(time.Millisecond)
	}
	sealedInfo, err := os.Stat(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if sealedInfo.Size() <= durableSize {
		t.Fatalf("sealed block not in the segment file (size %d, durable prefix %d)", sealedInfo.Size(), durableSize)
	}
	shortCtx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	_, werr := receipts[0].Wait(shortCtx)
	cancel()
	if !errors.Is(werr, context.DeadlineExceeded) {
		t.Fatalf("receipt resolved before the group fsync: %v", werr)
	}

	// Crash: the held fsync never completes, and no later sync (including
	// the drain in Close) reaches the disk. The receipt must resolve with
	// the failure, never claiming durability for a block the disk lacks.
	errCrash := errors.New("simulated crash before group fsync")
	gateMu.Lock()
	crashed = errCrash
	close(hold)
	hold = nil
	gateMu.Unlock()
	if _, err := receipts[0].Wait(ctx); !errors.Is(err, errCrash) {
		t.Fatalf("receipt after crashed sync: %v, want %v", err, errCrash)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	// Close fsyncs whatever the OS still buffered, so restore the crash
	// state by hand: everything past the last completed group sync never
	// reached stable storage.
	if err := os.Truncate(segPath, durableSize); err != nil {
		t.Fatal(err)
	}

	cfg.Durability = chain.Durability{}
	s2 := open(t, dir, Options{})
	defer s2.Close()
	c2, err := store.Open(cfg, s2)
	if err != nil {
		t.Fatalf("restore after group-commit crash: %v", err)
	}
	defer c2.Close()
	if got := c2.Head().Number; got != headDurable {
		t.Errorf("restored head %d, want %d (exactly the group-synced prefix)", got, headDurable)
	}
	if err := c2.VerifyIntegrity(); err != nil {
		t.Errorf("restored chain integrity: %v", err)
	}
}

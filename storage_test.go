package seldel

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/seldel/seldel/internal/attack"
	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/codec"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/manifest"
	"github.com/seldel/seldel/internal/verify"
)

// TestWithSegmentStoreLifecycle exercises the public segment-store
// surface: WithSegmentStore mirrors a fresh chain, deletion shrinks the
// store, and reopening the same directory restores from the durable
// Genesis marker (only the live suffix is replayed).
func TestWithSegmentStoreLifecycle(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	alice := DeterministicKey("alice", "segstore-test")
	if err := reg.RegisterKey(alice, RoleUser); err != nil {
		t.Fatal(err)
	}
	opts := []Option{
		WithSequenceLength(3),
		WithMaxSequences(2),
		WithClock(NewLogicalClock(0)),
	}
	c, err := New(reg, append(opts, WithSegmentStore(dir, SegmentOptions{SegmentBytes: 2048}))...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 25; i++ {
		sealed, err := c.SubmitWait(ctx, NewData("alice", []byte(fmt.Sprintf("d-%02d", i))).Sign(alice))
		if err != nil {
			t.Fatal(err)
		}
		del, err := c.SubmitWait(ctx, NewDeletion("alice", sealed[0].Ref).Sign(alice))
		if err != nil {
			t.Fatal(err)
		}
		if del[0].Mark.String() != "approved" {
			t.Fatalf("deletion %d not approved: %v", i, del[0].Mark)
		}
	}
	if err := c.CompactWait(ctx); err != nil {
		t.Fatal(err)
	}
	marker := c.Marker()
	if marker == 0 {
		t.Fatal("chain never truncated")
	}
	headHash := c.HeadHash()
	live := c.Len()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen the same directory: the chain restores from the durable
	// marker — marker, head, and only the live suffix replayed.
	c2, err := New(reg, append(opts, WithSegmentStore(dir, SegmentOptions{SegmentBytes: 2048}))...)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer c2.Close()
	if c2.HeadHash() != headHash {
		t.Error("restored head hash differs")
	}
	if c2.Marker() != marker {
		t.Errorf("restored marker %d, want %d", c2.Marker(), marker)
	}
	if got := c2.Stats().AppendedBlocks; got != uint64(live) {
		t.Errorf("restore replayed %d blocks, want live suffix %d", got, live)
	}

	// The standalone handle also works against the same directory once
	// the chain is closed, exposing the marker to operators.
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := NewSegmentStore(dir, SegmentOptions{SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if m, err := s.Marker(); err != nil || m != marker {
		t.Errorf("store marker %d (%v), want %d", m, err, marker)
	}
}

// TestWithDurabilityGroup exercises the group-commit façade option:
// receipts resolve only after their blocks are fsynced, the chain
// survives reopen, and configurations that cannot honor the contract
// are rejected at construction.
func TestWithDurabilityGroup(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	alice := DeterministicKey("alice", "group-commit-test")
	if err := reg.RegisterKey(alice, RoleUser); err != nil {
		t.Fatal(err)
	}
	c, err := New(reg,
		WithSequenceLength(3),
		WithClock(NewLogicalClock(0)),
		WithSegmentStore(dir, SegmentOptions{}),
		WithDurability(DurabilityGroup, 5*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	headHash := c.HeadHash()
	for i := 0; i < 10; i++ {
		sealed, err := c.SubmitWait(ctx, NewData("alice", []byte(fmt.Sprintf("g-%02d", i))).Sign(alice))
		if err != nil {
			t.Fatal(err)
		}
		if sealed[0].Block == 0 {
			t.Fatalf("receipt %d resolved without a block number", i)
		}
		headHash = c.HeadHash()
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Everything a receipt acknowledged is on disk: the reopened chain
	// carries the same head.
	c2, err := New(reg,
		WithSequenceLength(3),
		WithClock(NewLogicalClock(0)),
		WithSegmentStore(dir, SegmentOptions{}),
	)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer c2.Close()
	if c2.HeadHash() != headHash {
		t.Error("reopened head hash differs from last acknowledged head")
	}

	// Group commit needs a store that can fsync on demand: a memory-only
	// chain (no store at all) must be rejected, loudly, at construction.
	if _, err := New(reg, WithDurability(DurabilityGroup, 0)); !errors.Is(err, ErrConfig) {
		t.Fatalf("in-memory chain with group durability: err=%v, want ErrConfig", err)
	}
	// Invalid knobs fail regardless of the store.
	if _, err := New(reg, WithDurability(DurabilityMode(99), 0)); !errors.Is(err, ErrConfig) {
		t.Fatalf("bogus durability mode: err=%v, want ErrConfig", err)
	}
	if _, err := New(reg, WithDurability(DurabilityGroup, -time.Second)); !errors.Is(err, ErrConfig) {
		t.Fatalf("negative group window: err=%v, want ErrConfig", err)
	}
}

// storeWatcher is a listener that checks, at every callback, that the
// store already holds what the callback announces.
type storeWatcher struct {
	store *SegmentStore

	mu                  sync.Mutex
	appended, truncated int
	wrong               []string
}

func (w *storeWatcher) OnAppend(b *Block) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.appended++
	if _, err := w.store.GetBlock(b.Header.Number); err != nil {
		w.wrong = append(w.wrong, fmt.Sprintf("OnAppend(%d): not stored: %v", b.Header.Number, err))
	}
}

func (w *storeWatcher) OnTruncate(_, newMarker uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.truncated++
	if m, err := w.store.Marker(); err != nil || m != newMarker {
		w.wrong = append(w.wrong, fmt.Sprintf("OnTruncate(→%d): store marker %d (%v)", newMarker, m, err))
	}
}

// TestListenerSeesTheStore pins the order the benchmark's erase timing
// relies on: a WithListener listener finds the block OnAppend hands it
// already stored, and at OnTruncate the store's marker is already the
// new one, so a victim gone from the chain is gone from the disk.
func TestListenerSeesTheStore(t *testing.T) {
	reg := NewRegistry()
	alice := DeterministicKey("alice", "listener-order-test")
	if err := reg.RegisterKey(alice, RoleUser); err != nil {
		t.Fatal(err)
	}
	ss, err := NewSegmentStore(t.TempDir(), SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	w := &storeWatcher{store: ss}
	c, err := New(reg,
		WithSequenceLength(3),
		WithMaxSequences(1),
		WithClock(NewLogicalClock(0)),
		WithStore(ss),
		WithListener(w),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if _, err := c.SubmitWait(ctx, NewData("alice", []byte(fmt.Sprintf("o-%02d", i))).Sign(alice)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CompactWait(ctx); err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.appended == 0 || w.truncated == 0 {
		t.Fatalf("%d appends and %d truncations heard, want both", w.appended, w.truncated)
	}
	for _, msg := range w.wrong {
		t.Error(msg)
	}
}

// costChain is the chain the two cost tests below measure: the
// submission pipeline over a fresh segment store whose handle the test
// keeps, and n pre-signed entries to push through it.
func costChain(t *testing.T, n int, seg SegmentOptions, opts ...Option) (*Chain, *SegmentStore, []*Entry) {
	t.Helper()
	reg := NewRegistry()
	kp := DeterministicKey("writer", "cost-test")
	if err := reg.RegisterKey(kp, RoleUser); err != nil {
		t.Fatal(err)
	}
	ss, err := NewSegmentStore(t.TempDir(), seg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ss.Close() })
	c, err := New(reg, append(opts, WithSequenceLength(8), WithClock(NewLogicalClock(0)), WithStore(ss))...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	entries := make([]*Entry, n)
	for i := range entries {
		entries[i] = NewData("writer", []byte(fmt.Sprintf("load-%06d", i))).Sign(kp)
	}
	return c, ss, entries
}

// submitAll pipelines entries from p producers, one entry per Submit,
// and waits for every receipt at the end.
func submitAll(t *testing.T, c *Chain, entries []*Entry, p int) {
	t.Helper()
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		receipts := make([]Receipt, 0, len(entries)/p+1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(entries); i += p {
				// Re-sliced, not passed alone: boxing a variadic argument
				// would be the harness's allocation, not the pipeline's.
				rs, err := c.Submit(ctx, entries[i:i+1]...)
				if err != nil {
					t.Error(err)
					return
				}
				receipts = append(receipts, rs...)
			}
			for _, r := range receipts {
				if _, err := r.Wait(ctx); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestAppendAllocsPerEntry is the append path's cost in heap
// allocations, which no machine changes: one producer, 600 entries
// through submit → verify → seal → segment store on a warmed pipeline,
// counted process-wide. It reads 9.0 today (11.2 under -race); the
// ceiling of 14 is half of what the path cost before it stopped copying
// (27.5 at PR 6), so a per-entry copy or box creeping back in fails here.
func TestAppendAllocsPerEntry(t *testing.T) {
	const warm, n, ceiling = 64, 600, 14.0
	c, _, entries := costChain(t, warm+n, SegmentOptions{}, WithVerifier(NewVerifier(0, 0)))
	submitAll(t, c, entries[:warm], 1)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	submitAll(t, c, entries[warm:], 1)
	runtime.ReadMemStats(&after)
	if got := float64(after.Mallocs-before.Mallocs) / n; got > ceiling {
		t.Errorf("%.1f allocations per appended entry, ceiling %.0f", got, ceiling)
	} else {
		t.Logf("%.1f allocations per appended entry", got)
	}
}

// TestManifestOpenCostPerTombstone is the deletion manifest's reopen
// cost, which no machine changes: a DELETIONS log of 10 000 tombstones
// in erasure-workload shape (owner-signed, no co-signers, 80 to a
// record), opened by manifest.Open. It reads 1.01 allocations (the
// requester string) and 108 B on disk per tombstone; the JSON lines
// before the canonical encoding read 3.47 and 196.
func TestManifestOpenCostPerTombstone(t *testing.T) {
	const records, perRecord = 125, 80
	const allocCeiling, bytesCeiling = 1.5, 128.0
	dir := t.TempDir()
	l, err := manifest.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]manifest.Record, records)
	for r := range recs {
		base := uint64(r) * 16
		rec := manifest.Record{
			Seq: uint64(r) + 1, OldMarker: base, NewMarker: base + 16,
			SummaryBlock: base + 20, SummaryHash: codec.HashBytes([]byte{byte(r), 1}),
			FirstCutHash: codec.HashBytes([]byte{byte(r), 2}), LastCutHash: codec.HashBytes([]byte{byte(r), 3}),
			Time: base * 3,
		}
		for i := 0; i < perRecord; i++ {
			rec.Tombstones = append(rec.Tombstones, manifest.Tombstone{
				Target:        block.Ref{Block: base + uint64(i/8), Entry: uint32(i % 8)},
				Requester:     fmt.Sprintf("owner%02d", i%16),
				RequestRef:    block.Ref{Block: base + 12, Entry: uint32(i)},
				MarkedAtBlock: base + 12,
				EntryDigest:   codec.HashBytes([]byte{byte(r), byte(i), 4}),
			})
		}
		recs[r] = rec
	}
	if err := l.Rewrite(recs); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	const n = records * perRecord
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l, err = manifest.Open(dir)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if n := len(l.Records()); n != records || len(l.Warnings()) != 0 {
		t.Fatalf("reopened %d records with warnings %v, want %d clean", n, l.Warnings(), records)
	}
	fi, err := os.Stat(filepath.Join(dir, manifest.FileName))
	if err != nil {
		t.Fatal(err)
	}
	allocs, size := float64(after.Mallocs-before.Mallocs)/n, float64(fi.Size())/n
	if allocs > allocCeiling {
		t.Errorf("%.2f allocations per tombstone at open, ceiling %.1f", allocs, allocCeiling)
	}
	if size > bytesCeiling {
		t.Errorf("%.0f bytes per tombstone on disk, ceiling %.0f", size, bytesCeiling)
	}
	t.Logf("%.2f allocations and %.0f bytes per tombstone", allocs, size)
}

// TestSubmitVerifiesEachSignatureOnce is the write path's cost in
// Ed25519 verifications, which no machine changes: 60 SubmitWaits of
// 16 entries verify exactly one signature per entry — the warm-up's —
// and every later check (build, append, and on a cluster each peer's
// append of the gossiped block) is a cache hit. A cluster's envelopes
// go through the same verifier, at most one check per delivery. The flusher joins the
// warm-up before it seals; racing it on a cold cache instead read
// 1.89–2.00 verifications per entry on 2 CPUs.
func TestSubmitVerifiesEachSignatureOnce(t *testing.T) {
	const rounds, per = 60, 16
	reg := NewRegistry()
	kp := DeterministicKey("writer", "verify-once-test")
	if err := reg.RegisterKey(kp, RoleUser); err != nil {
		t.Fatal(err)
	}
	batches := func() [][]*Entry {
		out := make([][]*Entry, rounds)
		for r := range out {
			for i := 0; i < per; i++ {
				out[r] = append(out[r], NewData("writer", []byte(fmt.Sprintf("once-%02d-%02d", r, i))).Sign(kp))
			}
		}
		return out
	}
	ctx := context.Background()

	ver := NewVerifier(0, 0)
	c, err := New(reg, WithSequenceLength(8), WithMaxSequences(2), WithClock(NewLogicalClock(0)), WithVerifier(ver))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, b := range batches() {
		if _, err := c.SubmitWait(ctx, b...); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.PipelineStats().Verify.Verified; got != rounds*per {
		t.Errorf("chain: %d verifications for %d entries, want one each", got, rounds*per)
	}

	// Three anchors sharing one verifier, as in-process nodes do.
	net := NewNetwork(NetworkConfig{})
	defer net.Close()
	names := []string{"anchor-0", "anchor-1", "anchor-2"}
	quorum, err := NewQuorum(names)
	if err != nil {
		t.Fatal(err)
	}
	ver = NewVerifier(0, 0)
	nodes := make([]*Node, len(names))
	for i, name := range names {
		key := DeterministicKey(name, "verify-once-test")
		if err := reg.RegisterKey(key, RoleMaster); err != nil {
			t.Fatal(err)
		}
		nodes[i], err = NewNode(NodeConfig{
			Key: key,
			Chain: Config{
				SequenceLength: 8, MaxSequences: 2, Registry: reg,
				Clock: NewLogicalClock(0), Verifier: ver,
			},
			Quorum:  quorum,
			Network: net,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer nodes[i].Close()
	}
	for _, b := range batches() {
		sealed, err := nodes[0].SubmitWait(ctx, b...)
		if err != nil {
			t.Fatal(err)
		}
		net.Flush()
		for i, n := range nodes {
			if head := n.Chain().Head().Number; head < sealed[0].Block {
				t.Fatalf("node %d at block %d after Flush, block %d sealed", i, head, sealed[0].Block)
			}
		}
	}
	// On a cluster the verifier also opens every message envelope, and
	// the receivers of one broadcast race to its first check, so only the
	// entries' share is exact: every block here carries 16 entries, whose
	// signatures reach the curve through the batch path, once each.
	st := ver.Stats()
	if st.Batched != rounds*per {
		t.Errorf("3-node cluster: %d batch verifications for %d entries, want one each", st.Batched, rounds*per)
	}
	if env, delivered := st.Verified-st.Batched, net.Stats().Delivered; env == 0 || env > delivered {
		t.Errorf("3-node cluster: %d envelope verifications for %d delivered messages, want more than none and at most one each", env, delivered)
	}
}

// TestFsyncsPerBlock is the durability modes' cost in fsyncs, 16
// producers over 600 entries. When the store syncs on roll only, an
// append fsyncs only to roll at a sequence boundary: a Σ ends its
// segment, and this chain keeps every sequence, so no cut starts the
// next segment first. That is at most one fsync per Σ a block follows,
// however the entries pack into blocks. Under group commit there are
// more than none — receipts resolve at durability — but fewer than one
// per block, which is the whole point of sharing them.
func TestFsyncsPerBlock(t *testing.T) {
	measure := func(seg SegmentOptions, opts ...Option) (fsyncs, blocks, rolls uint64) {
		c, ss, entries := costChain(t, 600, seg, opts...)
		// Attaching the store and closing it sync too; neither is the
		// append path.
		f0, b0 := ss.FsyncCount(), c.Stats().AppendedBlocks
		submitAll(t, c, entries, 16)
		fsyncs, blocks = ss.FsyncCount()-f0, c.Stats().AppendedBlocks-b0
		live := c.Blocks()
		for _, b := range live[:len(live)-1] {
			if b.IsSummary() {
				rolls++
			}
		}
		return fsyncs, blocks, rolls
	}
	if fsyncs, blocks, rolls := measure(SegmentOptions{}); fsyncs > rolls || blocks == 0 {
		t.Errorf("roll-only: %d fsyncs over %d blocks, want at most one per Σ a block follows (%d)", fsyncs, blocks, rolls)
	}
	if fsyncs, blocks, _ := measure(SegmentOptions{}, WithDurability(DurabilityGroup, 50*time.Millisecond)); fsyncs == 0 || fsyncs >= blocks {
		t.Errorf("group commit: %d fsyncs over %d blocks, want more than none and fewer than one each", fsyncs, blocks)
	}
}

// boundaryWatch is a segment store that notes the normal blocks stored
// right after a Σ that cut the chain, and which of their PutBlocks
// issued an fsync.
type boundaryWatch struct {
	*SegmentStore
	chain *Chain // set once New returned; genesis is stored before

	marker   uint64 // the chain's marker when the last Σ was stored
	afterCut bool   // the last block stored was a Σ that cut
	followed int    // normal blocks stored after a cutting Σ
	synced   []uint64
}

func (w *boundaryWatch) PutBlock(b *Block) error {
	f0 := w.FsyncCount()
	err := w.SegmentStore.PutBlock(b)
	switch {
	case w.chain == nil:
	case b.IsSummary():
		// The marker moves under the chain lock, before the chain
		// stores the Σ that moved it.
		m := w.chain.Marker()
		w.afterCut, w.marker = m != w.marker, m
	case w.afterCut:
		w.afterCut = false
		w.followed++
		if w.FsyncCount() != f0 {
			w.synced = append(w.synced, b.Header.Number)
		}
	}
	return err
}

// TestBoundaryCutPrecedesNextBlock: at a sequence boundary the
// compactor's cut starts the next segment, and the flusher seals the
// block after a cutting Σ only once the cut ran, so under a pipelined
// writer that block's PutBlock never rolls the segment (one fsync) on
// the writer's path.
func TestBoundaryCutPrecedesNextBlock(t *testing.T) {
	const minBoundaries = 8
	reg := NewRegistry()
	kp := DeterministicKey("writer", "boundary-order-test")
	if err := reg.RegisterKey(kp, RoleUser); err != nil {
		t.Fatal(err)
	}
	ss, err := NewSegmentStore(t.TempDir(), SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ss.Close() })
	w := &boundaryWatch{SegmentStore: ss}
	c, err := New(reg, WithSequenceLength(4), WithMaxSequences(2), WithShrink(ShrinkMinimal),
		WithClock(NewLogicalClock(0)), WithStore(w))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	w.chain = c
	for round := 0; w.followed < minBoundaries && round < 20; round++ {
		entries := make([]*Entry, 256)
		for i := range entries {
			entries[i] = NewData("writer", []byte(fmt.Sprintf("load-%02d-%03d", round, i))).Sign(kp)
		}
		submitAll(t, c, entries, 8)
	}
	if w.followed < minBoundaries {
		t.Fatalf("%d blocks followed a cutting Σ, want at least %d", w.followed, minBoundaries)
	}
	if len(w.synced) > 0 {
		t.Errorf("%d of %d blocks after a cutting Σ fsynced in PutBlock (blocks %v), want none",
			len(w.synced), w.followed, w.synced)
	}
}

// ownStore is a populated segment-store directory and what its chain
// looked like when it was closed.
type ownStore struct {
	dir    string
	reg    *Registry
	opts   []Option // everything but the store and the verifier
	cfg    Config   // the same geometry, for a Restorer
	head   Hash
	marks  int
	blocks []*Block
}

// newOwnStore runs a chain on a fresh segment store — several small
// segments, sequences cut and carried, dependents, and deletion requests
// that were approved (owner-only, or co-signed by the dependent's owner
// when coSigned is set) and rejected (dependent's co-signature missing)
// — and closes it.
func newOwnStore(t *testing.T, coSigned bool) *ownStore {
	t.Helper()
	reg := NewRegistry()
	alice := DeterministicKey("alice", "own-store-test")
	bob := DeterministicKey("bob", "own-store-test")
	for _, kp := range []*KeyPair{alice, bob} {
		if err := reg.RegisterKey(kp, RoleUser); err != nil {
			t.Fatal(err)
		}
	}
	o := &ownStore{
		dir:  t.TempDir(),
		reg:  reg,
		opts: []Option{WithSequenceLength(3), WithMaxSequences(4), WithShrink(ShrinkMinimal)},
		cfg:  Config{SequenceLength: 3, MaxSequences: 4, Shrink: ShrinkMinimal, Registry: reg},
	}
	c := o.open(t, nil)
	ctx := context.Background()
	for i := 0; i < 24; i++ {
		sealed, err := c.SubmitWait(ctx, NewData("alice", []byte(fmt.Sprintf("own-%02d", i))).Sign(alice))
		if err != nil {
			t.Fatal(err)
		}
		ref, want := sealed[0].Ref, "approved"
		del := NewDeletion("alice", ref)
		switch i % 3 {
		case 1: // a dependent of bob's: his co-signature decides
			if _, err := c.SubmitWait(ctx, NewData("bob", []byte("dep")).WithDependsOn(ref).Sign(bob)); err != nil {
				t.Fatal(err)
			}
			if coSigned {
				del.Sign(alice).AddCoSignature(bob)
			} else {
				want = "rejected"
			}
		case 2:
			continue
		}
		out, err := c.SubmitWait(ctx, del.Sign(alice))
		if err != nil {
			t.Fatal(err)
		}
		if got := out[0].Mark.String(); got != want {
			t.Fatalf("deletion %d: %s, want %s", i, got, want)
		}
	}
	if err := c.CompactWait(ctx); err != nil {
		t.Fatal(err)
	}
	if c.Marker() == 0 || c.Stats().CarriedEntries == 0 {
		t.Fatalf("fixture never cut and carried (marker %d)", c.Marker())
	}
	o.head, o.marks, o.blocks = c.HeadHash(), len(c.Marks()), c.Blocks()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return o
}

// open opens the directory the way its owner does.
func (o *ownStore) open(t *testing.T, ver *Verifier) *Chain {
	t.Helper()
	c, err := o.tryOpen(o.dir, ver)
	if err != nil {
		t.Fatalf("open own store: %v", err)
	}
	return c
}

func (o *ownStore) tryOpen(dir string, ver *Verifier) (*Chain, error) {
	opts := append([]Option{WithClock(NewLogicalClock(0)), WithSegmentStore(dir, SegmentOptions{SegmentBytes: 1024})}, o.opts...)
	if ver != nil {
		opts = append(opts, WithVerifier(ver))
	}
	return New(o.reg, opts...)
}

// liveSignatures counts what a full verification of blocks has to pay
// for: one owner signature per entry (carried ones included) and the
// co-signatures of deletion requests.
func liveSignatures(blocks []*Block) (owners, coSigs uint64) {
	for _, b := range blocks {
		owners += uint64(len(b.Entries) + len(b.Carried))
		for _, e := range b.Entries {
			coSigs += uint64(len(e.CoSigners))
		}
	}
	return owners, coSigs
}

// TestReopenVerifiesBytesNotSignatures is the cost of the two restore
// origins in signatures verified, which no machine changes: a chain
// reopening its own store pays for the co-signatures of the deletion
// requests it holds — their verdicts re-create the marks — and for no
// owner signature; the same blocks handed over in memory (a Restorer,
// as a peer's offer is) pay for every live entry.
func TestReopenVerifiesBytesNotSignatures(t *testing.T) {
	for _, coSigned := range []bool{false, true} {
		o := newOwnStore(t, coSigned)
		owners, coSigs := liveSignatures(o.blocks)
		if coSigned == (coSigs == 0) {
			t.Fatalf("coSigned=%v fixture holds %d live co-signatures", coSigned, coSigs)
		}

		ver := NewVerifier(0, 0)
		c := o.open(t, ver)
		if got := ver.Stats().Verified; got != coSigs {
			t.Errorf("coSigned=%v: reopening the own store verified %d signatures, want the %d live co-signatures", coSigned, got, coSigs)
		}
		// Bytes were checked, and the verdicts did their work: the same
		// head, and every request approved or rejected as before.
		if c.HeadHash() != o.head {
			t.Errorf("coSigned=%v: reopened head differs", coSigned)
		}
		if got := len(c.Marks()); got != o.marks || got == 0 {
			t.Errorf("coSigned=%v: reopened chain holds %d marks, want %d", coSigned, got, o.marks)
		}
		if err := c.VerifySignatures(); err != nil {
			t.Errorf("coSigned=%v: VerifySignatures: %v", coSigned, err)
		}
		if got := ver.Stats().Verified; got < owners {
			t.Errorf("coSigned=%v: the audit verified %d signatures for %d live entries", coSigned, got, owners)
		}
		c.Close()
		ver.Close()

		ver = NewVerifier(0, 0)
		cfg := o.cfg
		cfg.Clock, cfg.Verifier = NewLogicalClock(0), ver
		r := chain.NewRestorer(cfg)
		for _, b := range o.blocks {
			if err := r.Add(b); err != nil {
				t.Fatalf("Restorer.Add: %v", err)
			}
		}
		foreign, err := r.Finish()
		if err != nil {
			t.Fatalf("Restorer.Finish: %v", err)
		}
		if got := ver.Stats().Verified; got < owners {
			t.Errorf("coSigned=%v: the Restorer verified %d signatures for %d live entries", coSigned, got, owners)
		}
		foreign.Close()
		ver.Close()
	}
}

// TestOwnStoreTamperMatrix rewrites a closed store directory and reopens
// it as its owner. Whatever breaks the bytes or the links fails New with
// a typed error. The last row is the boundary of the trusted reopen,
// stated: a suffix re-hashed all the way to the head around a forged
// owner signature — consistent checksums, Merkle roots and hash links —
// opens, because a node does not re-verify the signatures of its own
// store; VerifySignatures is the audit that names the block and the
// entry. (Offered by a peer, the same suffix is refused: the forged-
// snapshot drill in internal/node.)
func TestOwnStoreTamperMatrix(t *testing.T) {
	o := newOwnStore(t, true)
	at := -1
	for i, b := range o.blocks[:len(o.blocks)-1] {
		if i > 0 && len(b.Entries) > 0 && b.Entries[0].Kind == block.KindData {
			at = i
		}
	}
	if at < 0 {
		t.Fatal("fixture has no data block before its head")
	}
	// reput appends records for blocks to the store in dir: framed and
	// checksummed like any other, they supersede the originals.
	reput := func(blocks []*Block) func(*testing.T, string) {
		return func(t *testing.T, dir string) {
			s, err := NewSegmentStore(dir, SegmentOptions{SegmentBytes: 1024})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for _, b := range blocks {
				if err := s.PutBlock(b); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	edited := o.blocks[at].Clone()
	edited.Entries[0].Payload = []byte("edited")
	replaced := o.blocks[at].Clone()
	replaced.Entries, replaced.Header.EntriesRoot = nil, block.EntriesRoot(nil)
	regressed := attack.RehashedSuffix(o.blocks, at, func(b *Block) { b.Header.Time = 0 })
	forged := attack.RehashedSuffix(o.blocks, at, func(b *Block) { attack.ForgeEntry(b.Entries[0]) })

	cases := []struct {
		name   string
		tamper func(t *testing.T, dir string)
		want   error // nil: New opens the store, VerifySignatures objects
	}{
		{"payload byte flipped in a sealed segment", func(t *testing.T, dir string) {
			segs, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
			if err != nil || len(segs) < 2 {
				t.Fatalf("want several segments, got %v (%v)", segs, err)
			}
			sort.Strings(segs)
			raw, err := os.ReadFile(segs[0])
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)/2] ^= 0xff
			if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}, ErrStoreCorrupt},
		{"record rewritten under a valid checksum", reput([]*Block{edited}), ErrRootMismatch},
		{"block replaced by a self-consistent one", reput([]*Block{replaced}), ErrNotNext},
		{"time regressed, suffix re-hashed", reput(regressed[at:]), ErrTimeRegression},
		{"owner signature forged, suffix re-hashed", reput(forged[at:]), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.CopyFS(dir, os.DirFS(o.dir)); err != nil {
				t.Fatal(err)
			}
			tc.tamper(t, dir)
			c, err := o.tryOpen(dir, nil)
			if c != nil {
				defer c.Close()
			}
			if tc.want != nil {
				if !errors.Is(err, tc.want) {
					t.Fatalf("New = %v, want %v", err, tc.want)
				}
				return
			}
			if err != nil {
				t.Fatalf("New = %v, want the re-hashed store to open", err)
			}
			if c.HeadHash() == o.head {
				t.Fatal("the rewritten suffix kept the old head hash")
			}
			err = c.VerifySignatures()
			var ee *verify.EntryError
			where := fmt.Sprintf("block %d:", o.blocks[at].Header.Number)
			if !errors.Is(err, identity.ErrBadSignature) || !errors.As(err, &ee) || ee.Index != 0 || !strings.Contains(err.Error(), where) {
				t.Fatalf("VerifySignatures = %v, want a bad signature at %s entry 0", err, where)
			}
		})
	}
}

// TestReopenCostPerStoredByte prices a restart in bytes allocated, which
// no machine changes: reopening newOwnStore's directory through the
// façade allocates at most reopenAllocCeiling times the bytes the
// directory holds. The fixture's store is small (1 KiB segments), so the
// fixed cost of a chain counts for much of it. The ceiling sits between
// what a reopen allocated when every segment file was read with
// io.ReadAll and every block into a fresh payload (9.6 bytes per stored
// byte) and what it allocates since both go through the store's one
// record buffer and every Merkle check computes only its root (7.5; 8.1
// under -race, whose sync.Pool drops a share of its Puts).
func TestReopenCostPerStoredByte(t *testing.T) {
	const reopenAllocCeiling = 8.8
	o := newOwnStore(t, false)
	entries, err := os.ReadDir(o.dir)
	if err != nil {
		t.Fatal(err)
	}
	var stored int64
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		stored += fi.Size()
	}
	ver := NewVerifier(0, 0)
	defer ver.Close()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := o.open(t, ver)
	runtime.ReadMemStats(&after)
	defer c.Close()
	if c.HeadHash() != o.head {
		t.Fatal("reopened head differs")
	}
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(stored)
	if perByte > reopenAllocCeiling {
		t.Errorf("reopening a %d-byte store directory allocated %.1f bytes per stored byte, ceiling %.1f", stored, perByte, reopenAllocCeiling)
	}
	t.Logf("reopening a %d-byte store directory (%d files) allocated %.1f bytes per stored byte", stored, len(entries), perByte)
}

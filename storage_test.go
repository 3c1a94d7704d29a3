package seldel

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestWithSegmentStoreLifecycle exercises the public segment-store
// surface: WithSegmentStore mirrors a fresh chain, deletion shrinks the
// store, and reopening the same directory restores from the snapshot
// checkpoint (only the live suffix is replayed).
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

	// Reopen the same directory: the chain restores from the snapshot
	// checkpoint — marker, head, and only the live suffix replayed.
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
	// the chain is closed, exposing the snapshot to operators.
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := NewSegmentStore(dir, SegmentOptions{SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	snap, ok, err := s.Snapshot()
	if err != nil || !ok {
		t.Fatalf("Snapshot: ok=%v err=%v", ok, err)
	}
	if snap.Marker != marker {
		t.Errorf("snapshot marker %d, want %d", snap.Marker, marker)
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

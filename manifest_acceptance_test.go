package seldel

import (
	"context"
	"fmt"
	"testing"
)

// TestDeletionManifestFullLoop is the audit-trail acceptance path over
// the public façade: an entry is deleted and physically erased, the
// chain proves the erasure was deliberate while refusing to resolve the
// entry, the proof and the resurrection floor survive a restart from
// the store directory, and `seldel doctor` pronounces the directory
// clean afterwards.
func TestDeletionManifestFullLoop(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	alice := DeterministicKey("alice", "manifest-loop")
	if err := reg.RegisterKey(alice, RoleUser); err != nil {
		t.Fatal(err)
	}
	opts := []Option{
		WithSequenceLength(3),
		WithMaxSequences(2),
		WithClock(NewLogicalClock(0)),
	}
	open := func() *Chain {
		t.Helper()
		c, err := New(reg, append(opts, WithSegmentStore(dir, SegmentOptions{SegmentBytes: 2048}))...)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c := open()
	ctx := context.Background()

	victimEntry := NewData("alice", []byte("right to be forgotten")).Sign(alice)
	victimDigest := victimEntry.Hash()
	sealed, err := c.SubmitWait(ctx, victimEntry)
	if err != nil {
		t.Fatal(err)
	}
	victim := sealed[0].Ref
	if _, err := c.SubmitWait(ctx, NewDeletion("alice", victim).Sign(alice)); err != nil {
		t.Fatal(err)
	}
	for i := 0; c.Marker() <= victim.Block; i++ {
		if i > 64 {
			t.Fatal("retention never cut past the victim")
		}
		if _, err := c.SubmitWait(ctx, NewData("alice", []byte(fmt.Sprintf("churn-%02d", i))).Sign(alice)); err != nil {
			t.Fatal(err)
		}
		if err := c.CompactWait(ctx); err != nil {
			t.Fatal(err)
		}
	}

	// The entry is gone, the proof of deliberate erasure is not.
	if _, _, ok := c.Lookup(victim); ok {
		t.Fatal("victim still resolvable after physical erasure")
	}
	proof, err := c.ProveDeleted(victim)
	if err != nil {
		t.Fatalf("ProveDeleted: %v", err)
	}
	if err := proof.Verify(); err != nil {
		t.Fatalf("proof verification: %v", err)
	}
	if proof.Tombstone.Requester != "alice" || proof.Tombstone.EntryDigest != victimDigest {
		t.Fatalf("tombstone does not identify the erasure: %+v", proof.Tombstone)
	}
	recs, err := c.Tombstones(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no deletion records after truncation")
	}
	floor := c.ResurrectionFloor()
	if floor == 0 || floor <= victim.Block {
		t.Fatalf("resurrection floor %d does not cover victim block %d", floor, victim.Block)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the manifest is recovered from the DELETIONS log, so the
	// audit trail and the floor outlive the process that wrote them.
	c2 := open()
	recs2, err := c2.Tombstones(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs2) != len(recs) {
		t.Fatalf("restart lost deletion records: %d -> %d", len(recs), len(recs2))
	}
	if got := c2.ResurrectionFloor(); got != floor {
		t.Fatalf("restart floor %d, want %d", got, floor)
	}
	if _, _, ok := c2.Lookup(victim); ok {
		t.Fatal("victim resurrected by restart")
	}
	proof2, err := c2.ProveDeleted(victim)
	if err != nil {
		t.Fatalf("ProveDeleted after restart: %v", err)
	}
	if err := proof2.Verify(); err != nil {
		t.Fatalf("restarted proof verification: %v", err)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}

	// The doctor cross-validates the directory the lifecycle left behind.
	rep, err := Doctor(dir, DoctorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("doctor found issues in a healthy directory: %+v", rep.Findings)
	}
	if rep.Records != len(recs) {
		t.Errorf("doctor sees %d records, chain sealed %d", rep.Records, len(recs))
	}
	if rep.Marker < floor {
		t.Errorf("doctor marker %d below the resurrection floor %d", rep.Marker, floor)
	}
}

package node

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/simclock"
	"github.com/seldel/seldel/internal/store/segment"
	"github.com/seldel/seldel/internal/wire"
)

// TestRejoinRejectsResurrectionOffers is the resurrection drill: a
// follower witnesses a quorum deletion (its store records the manifest
// entry), loses every block file in a disk incident that spares the
// DELETIONS log, and rejoins from scratch. Its own manifest must arm
// the resurrection floor: sync and snapshot offers carrying blocks from
// the deleted range are rejected even though the fresh chain would
// happily append them, while a post-deletion status quo is adopted.
func TestRejoinRejectsResurrectionOffers(t *testing.T) {
	cl := newCluster(t, 3, "alpha", "user")
	dir := t.TempDir()
	st, err := segment.Open(dir, segment.Options{})
	if err != nil {
		t.Fatal(err)
	}

	name := "anchor-follower"
	kp := identity.Deterministic(name, "cluster-test")
	if err := cl.registry.RegisterKey(kp, identity.RoleMaster); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Key: kp,
		Chain: chain.Config{
			SequenceLength: 3,
			MaxSequences:   2,
			Shrink:         chain.ShrinkAllButNewest,
			Registry:       cl.registry,
			Clock:          simclock.NewLogical(0),
		},
		Quorum:  cl.nodes[0].quorum,
		Network: cl.net,
		Store:   st,
	}
	follower, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Seed the victim and capture the pre-deletion live chain: this is
	// the "resurrection payload" a stale or malicious peer could offer
	// after the deletion.
	user := cl.keys["user"]
	victim := cl.write(t, 0, cl.data("user", "erase me"))[0].Ref
	var stale [][]byte
	staleHead := uint64(0)
	for blk := range cl.nodes[0].Chain().BlocksSeq() {
		stale = append(stale, blk.Encode())
		staleHead = blk.Header.Number
	}

	// The quorum approves the deletion and truncates past the victim.
	cl.write(t, 0, block.NewDeletion("user", victim).Sign(user))
	cl.rounds(t, 0, 8, "truncate")
	if cl.nodes[0].Chain().Marker() <= victim.Block {
		t.Fatal("marker never passed the victim; scenario is vacuous")
	}
	if err := follower.Chain().CompactWait(context.Background()); err != nil {
		t.Fatal(err)
	}
	floor := follower.Chain().ResurrectionFloor()
	if floor == 0 || floor <= victim.Block {
		t.Fatalf("follower resurrection floor %d does not cover victim block %d", floor, victim.Block)
	}
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The incident: every block file, the marker file, and the snapshot
	// are lost; only the DELETIONS audit log survives.
	for _, pattern := range []string{"seg-*.seg", "MANIFEST", "SNAPSHOT"} {
		matches, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range matches {
			if err := os.Remove(m); err != nil {
				t.Fatal(err)
			}
		}
	}

	st2, err := segment.Open(dir, segment.Options{})
	if err != nil {
		t.Fatalf("reopening wiped store: %v", err)
	}
	defer st2.Close()
	cfg.Store = st2
	// A fresh logical clock: the first life advanced the shared one, and
	// a from-scratch rejoin must mint the same deterministic genesis the
	// cluster started from.
	cfg.Chain.Clock = simclock.NewLogical(0)
	rejoined, err := New(cfg)
	if err != nil {
		t.Fatalf("rejoining with wiped store: %v", err)
	}
	defer rejoined.Close()
	if got := rejoined.Chain().ResurrectionFloor(); got != floor {
		t.Fatalf("rejoined floor %d, want %d (seeded from the surviving DELETIONS log)", got, floor)
	}

	// The poison would take absent the guard: the stale suffix links
	// onto the fresh chain's deterministic genesis.
	first, err := block.DecodeBlock(stale[1])
	if err != nil {
		t.Fatal(err)
	}
	if first.Header.PrevHash != rejoined.Chain().Blocks()[0].Hash() {
		t.Fatal("stale blocks do not link onto the fresh genesis; rejection would be vacuous")
	}

	// Poisoned incremental sync: blocks 1..head, all below the floor.
	rejoined.handleSyncResp(wire.Envelope{
		Sender: cl.nodes[0].Name(),
		Body:   wire.EncodeSyncResp(wire.SyncRespPayload{Blocks: stale[1:]}),
	})
	if head := rejoined.Chain().Head().Number; head != 0 {
		t.Fatalf("rejoined node appended resurrected sync blocks (head %d)", head)
	}
	if resolvable(rejoined, victim) {
		t.Fatal("victim resurrected via sync offer")
	}

	// Poisoned snapshot adoption: pre-deletion status quo, marker 0.
	rejoined.handleSnapshotResp(wire.Envelope{
		Sender: cl.nodes[0].Name(),
		Body: wire.EncodeSnapshot(wire.SnapshotPayload{
			Marker: 0,
			Head:   staleHead,
			Blocks: stale,
		}),
	})
	if head := rejoined.Chain().Head().Number; head != 0 {
		t.Fatalf("rejoined node adopted a resurrected snapshot (head %d)", head)
	}
	if resolvable(rejoined, victim) {
		t.Fatal("victim resurrected via snapshot offer")
	}

	// The genuine status quo — anchored at or above the floor — is
	// still welcome: ask a live quorum member for catch-up.
	rejoined.requestSync(cl.nodes[0].Name())
	cl.net.Flush()
	if rejoined.Chain().HeadHash() != cl.nodes[0].Chain().HeadHash() {
		t.Fatalf("rejoined node did not adopt the legitimate status quo: head %d vs %d",
			rejoined.Chain().Head().Number, cl.nodes[0].Chain().Head().Number)
	}
	if rejoined.Chain().Marker() < floor {
		t.Fatalf("adopted marker %d below the floor %d", rejoined.Chain().Marker(), floor)
	}
	if resolvable(rejoined, victim) {
		t.Fatal("victim resolvable after legitimate adoption")
	}
	if got := rejoined.Chain().ResurrectionFloor(); got < floor {
		t.Fatalf("floor dropped to %d after adoption, want >= %d", got, floor)
	}
}

// TestSyncOffersCarryManifestHead checks the audit side of sync: serving
// nodes attach their deletion-manifest head to catch-up payloads.
func TestSyncOffersCarryManifestHead(t *testing.T) {
	cl := newCluster(t, 3, "alpha", "user")
	user := cl.keys["user"]
	target := cl.write(t, 0, cl.data("user", "x"))[0].Ref
	cl.write(t, 0, block.NewDeletion("user", target).Sign(user))
	cl.rounds(t, 0, 8, "truncate")

	c := cl.nodes[0].Chain()
	head, ok := c.TombstoneHead()
	if !ok {
		t.Fatal("no tombstone record after truncation")
	}
	var p wire.SnapshotPayload
	cl.nodes[0].sendSnapshot("nobody", c) // exercises the builder; send fails silently
	if hd, ok := c.TombstoneHead(); !ok || hd.NewMarker != c.Marker() {
		t.Fatalf("manifest head marker %d, chain marker %d", hd.NewMarker, c.Marker())
	}
	// Round-trip the payloads to prove the fields survive the wire.
	p = wire.SnapshotPayload{Marker: c.Marker(), Head: c.Head().Number, ManifestSeq: head.Seq, ManifestMarker: head.NewMarker}
	for blk := range c.BlocksSeq() {
		p.Blocks = append(p.Blocks, blk.Encode())
	}
	dec, err := wire.DecodeSnapshot(wire.EncodeSnapshot(p))
	if err != nil {
		t.Fatal(err)
	}
	if dec.ManifestSeq != head.Seq || dec.ManifestMarker != head.NewMarker {
		t.Fatalf("snapshot manifest head lost in transit: %+v", dec)
	}
	sr := wire.SyncRespPayload{Blocks: p.Blocks, ManifestSeq: head.Seq, ManifestMarker: head.NewMarker}
	decSync, err := wire.DecodeSyncResp(wire.EncodeSyncResp(sr))
	if err != nil {
		t.Fatal(err)
	}
	if decSync.ManifestSeq != head.Seq || decSync.ManifestMarker != head.NewMarker {
		t.Fatalf("sync manifest head lost in transit: %+v", decSync)
	}
}

package node

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/doctor"
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
	for _, pattern := range []string{"seg-*.seg", "MANIFEST"} {
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
	first, err := block.Decode(stale[1])
	if err == nil {
		err = first.CheckShape()
	}
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

	// Poisoned snapshot adoption: pre-deletion status quo, marker 0, in
	// one final chunk, so only the floor stands between it and adoption.
	rejoined.handleSnapshotResp(wire.Envelope{
		Sender: cl.nodes[0].Name(),
		Body: wire.EncodeSnapshot(wire.SnapshotPayload{
			Last:   true,
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

// TestAdoptedMarkerIsRecorded is the adoption side of the resurrection
// drill: a late follower with a segment store adopts the quorum's status
// quo by snapshot and closes before it cuts anything itself. Adopting
// moved its marker exactly as a cut would, so the store holds the record
// of that shift: the doctor calls the directory clean, the resurrection
// floor covers the adopted marker and survives the disk incident of
// TestRejoinRejectsResurrectionOffers (a snapshot below the marker is
// refused), and the node's first cut, after a restart, takes the log's
// next sequence number.
func TestAdoptedMarkerIsRecorded(t *testing.T) {
	cl := newCluster(t, 3, "alpha")
	// The stale status quo a peer could replay later: the live chain
	// before any cut, anchored at genesis.
	cl.rounds(t, 0, 2, "stale")
	if m := cl.nodes[0].Chain().Marker(); m != 0 {
		t.Fatalf("marker %d before the stale capture; want 0", m)
	}
	var stale [][]byte
	for blk := range cl.nodes[0].Chain().BlocksSeq() {
		stale = append(stale, blk.Encode())
	}
	staleHead := uint64(len(stale) - 1)
	cl.rounds(t, 0, 8, "before-join")
	adopted := cl.nodes[0].Chain().Marker()
	if adopted <= staleHead {
		t.Fatalf("marker %d does not pass the stale head %d; scenario is vacuous", adopted, staleHead)
	}

	kp := identity.Deterministic("anchor-late", "cluster-test")
	if err := cl.registry.RegisterKey(kp, identity.RoleMaster); err != nil {
		t.Fatal(err)
	}
	// start brings the follower up on the store in dir, on a fresh
	// logical clock, so each life mints the cluster's genesis.
	start := func(dir string) (*Node, *segment.Store) {
		t.Helper()
		st, err := segment.Open(dir, segment.Options{})
		if err != nil {
			t.Fatal(err)
		}
		n, err := New(Config{
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
		})
		if err != nil {
			st.Close()
			t.Fatal(err)
		}
		return n, st
	}
	stop := func(n *Node, st *segment.Store) {
		t.Helper()
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}

	dir := t.TempDir()
	late, st := start(dir)
	late.requestSync(cl.nodes[0].Name())
	cl.net.Flush()
	if late.Chain().HeadHash() != cl.nodes[0].Chain().HeadHash() || late.Chain().Marker() != adopted {
		t.Fatalf("late node did not adopt the status quo: %d..%d, want %d..%d", late.Chain().Marker(),
			late.Chain().Head().Number, adopted, cl.nodes[0].Chain().Head().Number)
	}
	if err := late.StoreErr(); err != nil {
		t.Fatalf("adoption: %v", err)
	}
	if floor := late.Chain().ResurrectionFloor(); floor < adopted {
		t.Errorf("resurrection floor %d after adopting marker %d", floor, adopted)
	}
	stop(late, st)

	rep, err := doctor.Run(dir, doctor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Errorf("doctor after the adoption: %+v, want clean", rep.Findings)
	}

	// The incident, on a copy: segments and MANIFEST lost, DELETIONS
	// kept. The rejoined node must refuse the stale snapshot, which
	// would otherwise link onto its fresh genesis and be adopted.
	lost := t.TempDir()
	copyDir(t, dir, lost)
	for _, pattern := range []string{"seg-*.seg", "MANIFEST"} {
		matches, err := filepath.Glob(filepath.Join(lost, pattern))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range matches {
			if err := os.Remove(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	rejoined, st2 := start(lost)
	if floor := rejoined.Chain().ResurrectionFloor(); floor < adopted {
		t.Errorf("rejoined floor %d, want >= the adopted marker %d", floor, adopted)
	}
	first, err := block.Decode(stale[1])
	if err == nil {
		err = first.CheckShape()
	}
	if err != nil {
		t.Fatal(err)
	}
	if first.Header.PrevHash != rejoined.Chain().Blocks()[0].Hash() {
		t.Fatal("stale blocks do not link onto the fresh genesis; rejection would be vacuous")
	}
	rejoined.handleSnapshotResp(wire.Envelope{
		Sender: cl.nodes[0].Name(),
		Body:   wire.EncodeSnapshot(wire.SnapshotPayload{Last: true, Marker: 0, Head: staleHead, Blocks: stale}),
	})
	if head := rejoined.Chain().Head().Number; head != 0 {
		t.Errorf("rejoined node adopted a snapshot below its adopted marker %d (head %d)", adopted, head)
	}
	stop(rejoined, st2)

	// The first cut after the adoption continues the log's numbering.
	restarted, st3 := start(dir)
	defer stop(restarted, st3)
	for r := 0; restarted.Chain().Marker() <= adopted; r++ {
		if r == 16 {
			t.Fatalf("no cut after the restart; marker still %d", restarted.Chain().Marker())
		}
		cl.write(t, 0, cl.data("alpha", fmt.Sprintf("after-%d", r)))
	}
	if err := restarted.Chain().CompactWait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := restarted.StoreErr(); err != nil {
		t.Fatalf("first cut after the adoption: %v", err)
	}
	recs, err := st3.DeletionRecords()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 2 {
		t.Fatalf("deletion log holds %d records, want the adoption's and the cut's", len(recs))
	}
	adoption, cut := recs[0], recs[1]
	if adoption.NewMarker != adopted || adoption.SummaryBlock != adopted || !adoption.Hydrated {
		t.Errorf("first record %+v, want the adoption of marker %d from its marker block", adoption, adopted)
	}
	if cut.Seq != adoption.Seq+1 || cut.OldMarker != adopted || cut.Hydrated {
		t.Errorf("first cut recorded as %d [%d, %d), want %d [%d, …)", cut.Seq, cut.OldMarker, cut.NewMarker, adoption.Seq+1, adopted)
	}
}

// copyDir copies the regular files of src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

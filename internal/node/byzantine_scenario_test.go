package node

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"github.com/seldel/seldel/internal/attack"
	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/simclock"
	"github.com/seldel/seldel/internal/store/segment"
	"github.com/seldel/seldel/internal/verify"
	"github.com/seldel/seldel/internal/wire"
)

// Byzantine drills beyond silent members: equivocating proposers that
// split the quorum's view, snapshot forgers replaying a pre-deletion
// status quo, and the node-side defenses (vote-evidence flagging, the
// resurrection floor, offer backoff) that contain them.

func equivocatorNames(cl *cluster, idx ...int) map[string]bool {
	out := make(map[string]bool, len(idx))
	for _, i := range idx {
		out[cl.nodes[i].Name()] = true
	}
	return out
}

func assertFlagged(t *testing.T, nd *Node, want map[string]bool) {
	t.Helper()
	got := nd.Equivocators()
	if len(got) != len(want) {
		t.Fatalf("%s flagged %v, want exactly %v", nd.Name(), got, want)
	}
	for _, name := range got {
		if !want[name] {
			t.Fatalf("%s flagged honest member %s", nd.Name(), name)
		}
	}
}

func TestEquivocationAtToleranceBound(t *testing.T) {
	// 5-member quorum, threshold 3: two equivocators tell half their
	// peers one summary hash and the other half its complement. The
	// three honest votes alone reach the threshold, relay-on-disagreement
	// spreads the conflicting signed envelopes, and every honest node
	// ends holding proof against exactly the two liars — who, having
	// computed the honest summary for their own chain, still converge.
	cl := newClusterWithByzantine(t, 5,
		map[int]attack.Behavior{3: attack.Equivocation, 4: attack.Equivocation}, "alpha")
	cl.driveRounds(t, 0, 8, "equivocating")
	if cl.nodes[0].Chain().Marker() == 0 {
		t.Fatal("marker never shifted with equivocators at the tolerance bound")
	}
	if err := cl.headsAndMarkersAgree(); err != nil {
		t.Fatalf("cluster diverged under equivocation: %v", err)
	}
	want := equivocatorNames(cl, 3, 4)
	for _, nd := range cl.nodes[:3] {
		if nd.Forked() {
			t.Errorf("honest %s reports forked", nd.Name())
		}
		assertFlagged(t, nd, want)
	}
}

func TestEquivocationBeyondToleranceBound(t *testing.T) {
	// 3 of 5 members equivocate. Safety must hold unconditionally: no
	// honest node forks, no honest node flags an honest member, and the
	// honest chains stay identical. Liveness is then lost for the honest
	// remainder alone: with the equivocators partitioned away (or their
	// votes discarded as flagged), two honest votes can never reach the
	// threshold of three.
	cl := newClusterWithByzantine(t, 5,
		map[int]attack.Behavior{2: attack.Equivocation, 3: attack.Equivocation, 4: attack.Equivocation}, "alpha")
	alpha := cl.keys["alpha"]
	for i := 0; i < 6; i++ {
		cl.nodes[0].SubmitLocal(block.NewData("alpha", []byte(fmt.Sprintf("b%d", i))).Sign(alpha))
		cl.net.Flush()
		if _, err := cl.nodes[0].Propose(); err != nil && !errors.Is(err, ErrSummaryPending) {
			t.Fatal(err)
		}
		cl.net.Flush()
	}
	for _, nd := range cl.nodes[:2] {
		if nd.Forked() {
			t.Errorf("honest %s forked under majority equivocation", nd.Name())
		}
		for _, flagged := range nd.Equivocators() {
			if flagged == cl.nodes[0].Name() || flagged == cl.nodes[1].Name() {
				t.Errorf("honest %s flagged honest member %s", nd.Name(), flagged)
			}
		}
	}
	if cl.nodes[0].Chain().HeadHash() != cl.nodes[1].Chain().HeadHash() {
		t.Error("honest nodes diverged from each other")
	}

	// Cut the equivocators off: the honest remainder stalls at the next
	// summary with ErrSummaryPending, forever — liveness loss, by design.
	cl.net.Partition([]string{cl.nodes[0].Name(), cl.nodes[1].Name()})
	marker := cl.nodes[0].Chain().Marker()
	var lastErr error
	for i := 0; i < 8 && lastErr == nil; i++ {
		cl.nodes[0].SubmitLocal(block.NewData("alpha", []byte(fmt.Sprintf("stall-%d", i))).Sign(alpha))
		cl.net.Flush()
		_, lastErr = cl.nodes[0].Propose()
		cl.net.Flush()
	}
	if !errors.Is(lastErr, ErrSummaryPending) {
		t.Fatalf("honest minority: Propose = %v, want ErrSummaryPending", lastErr)
	}
	for i := 0; i < 3; i++ {
		if _, err := cl.nodes[0].Propose(); !errors.Is(err, ErrSummaryPending) {
			t.Fatalf("summary passed without an honest majority: %v", err)
		}
		cl.net.Flush()
	}
	if cl.nodes[0].Chain().Marker() != marker {
		t.Error("marker shifted without an honest majority")
	}
}

func TestForgedSnapshotRejectedByRejoiningReplica(t *testing.T) {
	// A quorum member with the ForgedSnapshot behaviour freezes the
	// first snapshot offer it ever builds and replays it (re-signed,
	// fresh offer ID) forever. A replica that witnessed a later deletion
	// and rejoins from a wiped store must reject the stale offer on its
	// own resurrection floor — the forger's signature is genuine, so the
	// floor is the only defense — and then adopt an honest peer's offer.
	cl := newClusterWithByzantine(t, 3, map[int]attack.Behavior{1: attack.ForgedSnapshot}, "alpha", "user")
	forger := cl.nodes[1]
	user := cl.keys["user"]

	dir := t.TempDir()
	st, err := segment.Open(dir, segment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	name := "anchor-replica"
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
	replica, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Age the chain past its first merge, then freeze the forger: its
	// next snapshot build — here provoked by an out-of-window sync
	// request — is the offer it will replay for the rest of its life.
	cl.driveRounds(t, 0, 6, "age")
	if forger.Chain().Marker() == 0 {
		t.Fatal("no marker shift before the freeze; drill is vacuous")
	}
	frozenMarker := forger.Chain().Marker()
	forger.sendSnapshot("nobody", forger.Chain())
	forger.mu.Lock()
	frozen := forger.frozenOfferSet
	forger.mu.Unlock()
	if !frozen {
		t.Fatal("forger did not freeze its first offer")
	}

	// Now the deletion the frozen offer would resurrect.
	cl.nodes[0].SubmitLocal(block.NewData("user", []byte("must stay dead")).Sign(user))
	cl.net.Flush()
	b, err := cl.nodes[0].Propose()
	if err != nil {
		t.Fatal(err)
	}
	cl.net.Flush()
	victim := block.Ref{Block: b.Header.Number, Entry: 0}
	cl.nodes[0].SubmitLocal(block.NewDeletion("user", victim).Sign(user))
	cl.net.Flush()
	if _, err := cl.nodes[0].Propose(); err != nil {
		t.Fatal(err)
	}
	cl.net.Flush()
	cl.driveRounds(t, 0, 8, "truncate")
	if err := replica.Chain().CompactWait(context.Background()); err != nil {
		t.Fatal(err)
	}
	floor := replica.Chain().ResurrectionFloor()
	if floor <= frozenMarker {
		t.Fatalf("floor %d does not pass the frozen marker %d; drill is vacuous", floor, frozenMarker)
	}
	if err := replica.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Disk incident: everything but the DELETIONS audit log is lost.
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
		t.Fatal(err)
	}
	defer st2.Close()
	cfg.Store = st2
	cfg.Chain.Clock = simclock.NewLogical(0)
	ver := verify.New(verify.Options{})
	defer ver.Close()
	cfg.Chain.Verifier = ver
	rejoined, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rejoined.Close()
	if got := rejoined.Chain().ResurrectionFloor(); got != floor {
		t.Fatalf("rejoined floor %d, want %d", got, floor)
	}

	// Ask the forger first: it replays the frozen pre-deletion offer,
	// and the floor must reject it at chunk 0.
	rejoined.requestSync(forger.Name())
	cl.net.Flush()
	if head := rejoined.Chain().Head().Number; head != 0 {
		t.Fatalf("rejoined replica adopted the forged snapshot (head %d)", head)
	}
	st1 := rejoined.SyncStats()
	if st1.OffersRejected == 0 || st1.OffersCompleted != 0 {
		t.Fatalf("forged offer not floor-rejected: %+v", st1)
	}

	// The floor does not stop a forgery anchored at the honest marker: a
	// suffix re-hashed around a forged owner signature. A member whose
	// store directory was rewritten that way opens it without complaint
	// (a node does not re-verify its own bytes; VerifySignatures is the
	// audit that names the entry) and offers it in good faith. What
	// crossed the network is verified signature by signature: refused.
	honest := cl.nodes[0].Chain().Blocks()
	at := len(honest) - 1
	for at > 0 && len(honest[at].Entries) == 0 {
		at--
	}
	reopenCfg := cfg.Chain
	reopenCfg.Clock = simclock.NewLogical(0)
	rewritten, err := chain.RestoreOwnStream(reopenCfg, func(yield func(*block.Block, error) bool) {
		for _, b := range attack.RehashedSuffix(honest, at, func(b *block.Block) { attack.ForgeEntry(b.Entries[0]) }) {
			if !yield(b, nil) {
				return
			}
		}
	})
	if err != nil {
		t.Fatalf("re-hashed suffix did not open as the node's own: %v", err)
	}
	defer rewritten.Close()
	if err := rewritten.VerifySignatures(); !errors.Is(err, identity.ErrBadSignature) {
		t.Fatalf("VerifySignatures on the rewritten chain = %v, want a bad signature", err)
	}
	cl.nodes[2].sendSnapshot(rejoined.Name(), rewritten)
	cl.net.Flush()
	if head := rejoined.Chain().Head().Number; head != 0 {
		t.Fatalf("rejoined replica adopted a suffix with a forged owner signature (head %d)", head)
	}
	if st := rejoined.SyncStats(); st.OffersAborted != st1.OffersAborted+1 || st.OffersCompleted != 0 {
		t.Fatalf("forged-signature offer not aborted: before %+v, after %+v", st1, st)
	}

	// An honest peer's offer is anchored at or above the floor: adopted.
	rejoined.requestSync(cl.nodes[0].Name())
	cl.net.Flush()
	if rejoined.Chain().HeadHash() != cl.nodes[0].Chain().HeadHash() {
		t.Fatalf("rejoined replica did not adopt the honest status quo: head %d vs %d",
			rejoined.Chain().Head().Number, cl.nodes[0].Chain().Head().Number)
	}
	if rejoined.Chain().Marker() < floor {
		t.Fatalf("adopted marker %d below the floor %d", rejoined.Chain().Marker(), floor)
	}
	adopted := 0
	for _, b := range rejoined.Chain().Blocks() {
		adopted += len(b.Entries) + len(b.Carried)
	}
	// Every entry that came from a peer cost this node's own verifier a
	// verification (the forged offer's valid prefix stayed in its cache).
	if got := ver.Stats().Verified; adopted == 0 || got < uint64(adopted) {
		t.Fatalf("adopting %d entries from peers verified %d signatures", adopted, got)
	}
	if resolvable(rejoined, victim) {
		t.Fatal("victim resurrected despite the floor")
	}
	st2nd := rejoined.SyncStats()
	if st2nd.OffersCompleted != 1 {
		t.Fatalf("honest offer not adopted exactly once: %+v", st2nd)
	}
}

func TestRejectedOfferBackoffSuppressesAndLogsOnce(t *testing.T) {
	// Satellite defense: a peer whose catch-up offers keep dying on the
	// resurrection floor is muted after offerRejectLimit strikes — its
	// offers are dropped before decoding, with a single operator log
	// line — until this node deliberately asks it for data again.
	cl := newCluster(t, 3, "alpha", "user")
	user := cl.keys["user"]
	nd := cl.nodes[0]
	peer := cl.nodes[1].Name()

	// Establish a floor: seed a victim, capture a pre-deletion block,
	// delete and truncate past it.
	cl.nodes[0].SubmitLocal(block.NewData("user", []byte("bait")).Sign(user))
	cl.net.Flush()
	b, err := cl.nodes[0].Propose()
	if err != nil {
		t.Fatal(err)
	}
	cl.net.Flush()
	stale := b.Encode()
	victim := block.Ref{Block: b.Header.Number, Entry: 0}
	cl.nodes[0].SubmitLocal(block.NewDeletion("user", victim).Sign(user))
	cl.net.Flush()
	if _, err := cl.nodes[0].Propose(); err != nil {
		t.Fatal(err)
	}
	cl.net.Flush()
	cl.driveRounds(t, 0, 8, "truncate")
	if nd.Chain().ResurrectionFloor() <= victim.Block {
		t.Fatal("floor never passed the victim; test is vacuous")
	}

	var logged atomic.Int64
	nd.mu.Lock()
	nd.logf = func(string, ...any) { logged.Add(1) }
	nd.mu.Unlock()

	resurrect := wire.Envelope{
		Sender: peer,
		Body:   wire.EncodeSyncResp(wire.SyncRespPayload{Blocks: [][]byte{stale}}),
	}
	for i := 0; i < offerRejectLimit; i++ {
		nd.handleSyncResp(resurrect)
	}
	st := nd.SyncStats()
	if st.OffersRejected != offerRejectLimit || st.OffersSuppressed != 0 {
		t.Fatalf("after %d strikes: %+v", offerRejectLimit, st)
	}
	if logged.Load() != 0 {
		t.Fatal("suppression logged before the limit was reached")
	}

	// Strike limit reached: further offers are suppressed pre-decode,
	// and the operator line fires exactly once for the episode.
	nd.handleSyncResp(resurrect)
	nd.handleSyncResp(resurrect)
	st = nd.SyncStats()
	if st.OffersRejected != offerRejectLimit || st.OffersSuppressed != 2 {
		t.Fatalf("suppression did not engage: %+v", st)
	}
	if got := logged.Load(); got != 1 {
		t.Fatalf("suppression logged %d times, want exactly 1", got)
	}

	// A deliberate sync request to the muted peer lifts the backoff.
	nd.requestSync(peer)
	cl.net.Flush()
	nd.handleSyncResp(resurrect)
	st = nd.SyncStats()
	if st.OffersRejected != offerRejectLimit+1 {
		t.Fatalf("backoff not reset by requestSync: %+v", st)
	}
	if got := logged.Load(); got != 1 {
		t.Fatalf("log line re-fired without a new episode: %d", got)
	}
}

func TestVoteRetrySelfDrivingOnLossyNetwork(t *testing.T) {
	// With Config.VoteRetryInterval the node re-announces a pending
	// summary vote on its own timer: concurrent writers just call
	// SubmitWait and never see ErrSummaryPending, even while the network
	// is dropping a quarter of all messages.
	cl := newCluster(t, 3, "alpha")
	alpha := cl.keys["alpha"]
	for _, nd := range cl.nodes {
		nd.mu.Lock()
		nd.voteRetry = time.Millisecond
		nd.mu.Unlock()
	}
	cl.net.SetDropRate(0.25)
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		e := block.NewData("alpha", []byte(fmt.Sprintf("lossy-%d", i))).Sign(alpha)
		if _, err := cl.nodes[0].SubmitWait(ctx, e); err != nil {
			t.Fatalf("SubmitWait %d under loss: %v", i, err)
		}
	}
	if cl.nodes[0].Chain().Marker() == 0 {
		t.Fatal("no summary completed under loss; retry never exercised")
	}
	// Clean rounds let the stragglers sync, then everyone must agree.
	cl.net.SetDropRate(0)
	cl.driveRounds(t, 0, 3, "recover")
	if err := cl.headsAndMarkersAgree(); err != nil {
		t.Fatal(err)
	}
}

func TestChunkedSnapshotBoundsStagedMemory(t *testing.T) {
	// The chunked sync ceiling: a snapshot spanning several chunks is
	// streamed through the restore pipeline, and the blocks staged in
	// the receive path never exceed the wire chunk bound — however long
	// the offered chain is.
	old := snapChunkBlocks
	snapChunkBlocks = 2
	t.Cleanup(func() { snapChunkBlocks = old })

	cl := newCluster(t, 3, "alpha")
	lagger := cl.nodes[2]
	cl.driveRounds(t, 0, 2, "seed")
	cl.net.Partition([]string{lagger.Name()})
	cl.driveRounds(t, 0, 8, "ahead")
	// Top up the live window so the offer needs several 2-block chunks.
	for cl.nodes[0].Chain().Head().Number-cl.nodes[0].Chain().Marker()+1 < 5 {
		cl.driveRounds(t, 0, 1, "window")
	}
	if lagger.Chain().Head().Number >= cl.nodes[0].Chain().Marker() {
		t.Fatal("lagger not behind the marker; snapshot path not exercised")
	}
	cl.net.Heal()
	cl.driveRounds(t, 0, 2, "heal")
	if err := cl.headsAndMarkersAgree(); err != nil {
		t.Fatal(err)
	}
	st := lagger.SyncStats()
	if st.OffersCompleted < 1 {
		t.Fatalf("lagger adopted no snapshot: %+v", st)
	}
	if st.ChunksReceived < 3 {
		t.Fatalf("offer was not multi-chunk (chunks %d): %+v", st.ChunksReceived, st)
	}
	if st.PeakStagedBlocks < 1 || st.PeakStagedBlocks > int64(wire.MaxSnapshotChunkBlocks) {
		t.Fatalf("staged-block peak %d outside (0, %d]", st.PeakStagedBlocks, wire.MaxSnapshotChunkBlocks)
	}
}

func TestSnapshotSessionRejectsBrokenChunkStreams(t *testing.T) {
	// The receiver-side continuity checks, driven directly: competing
	// offers are ignored while one streams, gaps abort the session, and
	// stragglers without a session are dropped.
	cl := newCluster(t, 3, "alpha")
	nd := cl.nodes[0]
	genesis := cl.nodes[1].Chain().Blocks()[0]

	open := wire.SnapshotPayload{
		OfferID: 9, Chunk: 0, Last: false,
		Marker: genesis.Header.Number, Head: genesis.Header.Number,
		Blocks: [][]byte{genesis.Encode()},
	}
	nd.handleSnapshotResp(wire.Envelope{Sender: cl.nodes[1].Name(), Body: wire.EncodeSnapshot(open)})
	if st := nd.SyncStats(); st.OffersStarted != 1 {
		t.Fatalf("offer did not open a session: %+v", st)
	}

	// A competing chunk-0 from another sender while the first streams.
	nd.handleSnapshotResp(wire.Envelope{Sender: cl.nodes[2].Name(), Body: wire.EncodeSnapshot(open)})
	if st := nd.SyncStats(); st.OffersIgnored != 1 {
		t.Fatalf("competing offer not ignored: %+v", st)
	}

	// A gap in the chunk index kills the session.
	gap := wire.SnapshotPayload{
		OfferID: 9, Chunk: 2, Last: true,
		Marker: genesis.Header.Number + 1, Head: genesis.Header.Number + 1,
		Blocks: [][]byte{genesis.Encode()},
	}
	nd.handleSnapshotResp(wire.Envelope{Sender: cl.nodes[1].Name(), Body: wire.EncodeSnapshot(gap)})
	if st := nd.SyncStats(); st.OffersAborted != 1 {
		t.Fatalf("gapped stream not aborted: %+v", st)
	}

	// With no session left, a mid-stream chunk is dropped without side
	// effects.
	tail := gap
	tail.Chunk = 1
	before := nd.SyncStats()
	nd.handleSnapshotResp(wire.Envelope{Sender: cl.nodes[1].Name(), Body: wire.EncodeSnapshot(tail)})
	after := nd.SyncStats()
	before.ChunksReceived++
	if after != before {
		t.Fatalf("sessionless chunk had side effects: %+v vs %+v", after, before)
	}
}

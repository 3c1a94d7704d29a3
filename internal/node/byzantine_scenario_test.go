package node

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/seldel/seldel/internal/attack"
	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/codec"
	"github.com/seldel/seldel/internal/consensus"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/netsim"
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
	cl.rounds(t, 0, 8, "equivocating")
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

// TestRetractedRoundIsServedToARepeatedAnnouncement drives one node's
// vote handling by hand. The node applies a summary round on the votes
// of two members, one of whom later equivocates and is flagged, which
// retracts its counted vote. An honest peer that flagged the equivocator
// first never decides that round and keeps announcing it: its repeated
// non-repair announcement must be answered with the node's blocks from
// that round on, and was not while the round's votes all stood.
func TestRetractedRoundIsServedToARepeatedAnnouncement(t *testing.T) {
	net := netsim.New(netsim.Config{})
	t.Cleanup(net.Close)
	reg := identity.NewRegistry()
	names := []string{"anchor-0", "anchor-1", "anchor-2", "anchor-3", "anchor-4"}
	keys := make(map[string]*identity.KeyPair)
	for _, name := range names {
		keys[name] = identity.Deterministic(name, "retracted-round")
		if err := reg.RegisterKey(keys[name], identity.RoleMaster); err != nil {
			t.Fatal(err)
		}
	}
	quorum, err := consensus.NewQuorum(names)
	if err != nil {
		t.Fatal(err)
	}
	nd, err := New(Config{
		Key: keys["anchor-0"],
		Chain: chain.Config{
			SequenceLength: 3,
			Registry:       reg,
			Clock:          simclock.NewLogical(0),
		},
		Quorum:  quorum,
		Network: net,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nd.Close() })

	// The other members are bare endpoints; the peer records what the
	// node sends it.
	var mu sync.Mutex
	var toPeer []wire.Envelope
	eps := make(map[string]*netsim.Endpoint)
	for _, name := range names[1:] {
		handler := func(netsim.Message) {}
		if name == "anchor-1" {
			handler = func(msg netsim.Message) {
				env, err := wire.OpenEnvelope(nd.Chain().Verifier(), reg, msg.Payload)
				if err != nil {
					t.Errorf("peer received an unopenable message: %v", err)
					return
				}
				mu.Lock()
				toPeer = append(toPeer, env)
				mu.Unlock()
			}
		}
		if eps[name], err = net.Join(name, handler); err != nil {
			t.Fatal(err)
		}
	}
	syncResps := func() []wire.SyncRespPayload {
		mu.Lock()
		defer mu.Unlock()
		var out []wire.SyncRespPayload
		for _, env := range toPeer {
			if env.Kind == wire.KindSyncResp {
				p, err := wire.DecodeSyncResp(env.Body)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, p)
			}
		}
		return out
	}

	// Fill the sequence up to its summary slot: the node announces Σ.
	for !nd.Chain().NextIsSummary() {
		if _, err := nd.AppendEmpty(); err != nil {
			t.Fatal(err)
		}
	}
	net.Flush()
	sigma, err := nd.Chain().BuildSummary()
	if err != nil {
		t.Fatal(err)
	}
	vote := wire.VotePayload{
		Number: sigma.Header.Number, Hash: sigma.Hash(),
		Marker: nd.Chain().Marker(), Approve: true,
	}
	send := func(from string, v wire.VotePayload) {
		t.Helper()
		raw := wire.SealEnvelope(keys[from], wire.KindVote, wire.EncodeVote(v))
		if err := eps[from].Send("anchor-0", wire.KindVote, raw); err != nil {
			t.Fatal(err)
		}
		net.Flush()
	}

	// Two members' votes and the node's own decide the round.
	send("anchor-2", vote)
	send("anchor-3", vote)
	if head := nd.Chain().Head(); head.Number != vote.Number || nd.Chain().HeadHash() != vote.Hash {
		t.Fatalf("head is block %d, want Σ %d applied", head.Number, vote.Number)
	}
	// The peer announces the round, then announces it again: while the
	// round's votes stand, a repeat is answered with a vote, not blocks.
	send("anchor-1", vote)
	send("anchor-1", vote)
	if got := syncResps(); len(got) != 0 {
		t.Fatalf("a repeated announcement of a round decided on standing votes drew %d sync responses", len(got))
	}

	// anchor-2 equivocates: flagged, its counted vote is retracted.
	other := vote
	other.Hash = codec.HashBytes([]byte("another summary"))
	send("anchor-2", other)
	if eq := nd.Equivocators(); len(eq) != 1 || eq[0] != "anchor-2" {
		t.Fatalf("equivocators = %v, want [anchor-2]", eq)
	}

	// The peer repeats its announcement: the node serves it the blocks
	// from the round on.
	send("anchor-1", vote)
	got := syncResps()
	if len(got) != 1 || len(got[0].Blocks) == 0 {
		t.Fatalf("after the retraction, the repeated announcement drew %d sync responses, want one with blocks", len(got))
	}
	first, err := block.Decode(got[0].Blocks[0])
	if err != nil {
		t.Fatal(err)
	}
	if first.Header.Number != vote.Number || first.Hash() != vote.Hash {
		t.Errorf("served blocks start at block %d (%v), want Σ %d (%v)", first.Header.Number, first.Hash(), vote.Number, vote.Hash)
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
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		if _, err := cl.nodes[0].SubmitWait(ctx, cl.data("alpha", fmt.Sprintf("b%d", i))); err != nil && !errors.Is(err, ErrSummaryPending) {
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
		t.Errorf("honest nodes diverged from each other:\n%s\n%s", honestView(cl.nodes[0]), honestView(cl.nodes[1]))
	}

	// Cut the equivocators off: the honest remainder stalls at the next
	// summary with ErrSummaryPending, forever — liveness loss, by design.
	cl.net.Partition([]string{cl.nodes[0].Name(), cl.nodes[1].Name()})
	marker := cl.nodes[0].Chain().Marker()
	var lastErr error
	for i := 0; i < 8 && lastErr == nil; i++ {
		_, lastErr = cl.nodes[0].SubmitWait(ctx, cl.data("alpha", fmt.Sprintf("stall-%d", i)))
		cl.net.Flush()
	}
	if !errors.Is(lastErr, ErrSummaryPending) {
		t.Fatalf("honest minority: SubmitWait = %v, want ErrSummaryPending", lastErr)
	}
	for i := 0; i < 3; i++ {
		if _, err := cl.nodes[0].AppendEmpty(); !errors.Is(err, ErrSummaryPending) {
			t.Fatalf("summary passed without an honest majority: %v", err)
		}
		cl.net.Flush()
	}
	if cl.nodes[0].Chain().Marker() != marker {
		t.Error("marker shifted without an honest majority")
	}
}

// honestView is what a divergence report needs of one node: its head,
// marker, fork latch and the members it flagged.
func honestView(nd *Node) string {
	c := nd.Chain()
	return fmt.Sprintf("%s: head %d %x, marker %d, forked %v, equivocators %v",
		nd.Name(), c.Head().Number, c.HeadHash(), c.Marker(), nd.Forked(), nd.Equivocators())
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
	cl.rounds(t, 0, 6, "age")
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
	victim := cl.write(t, 0, cl.data("user", "must stay dead"))[0].Ref
	cl.write(t, 0, block.NewDeletion("user", victim).Sign(user))
	cl.rounds(t, 0, 8, "truncate")
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
	victim := cl.write(t, 0, cl.data("user", "bait"))[0].Ref
	b, _ := nd.Chain().Block(victim.Block)
	stale := b.Encode()
	cl.write(t, 0, block.NewDeletion("user", victim).Sign(user))
	cl.rounds(t, 0, 8, "truncate")
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
	cl := newClusterWith(t, 3, func(_ int, cfg *Config) { cfg.VoteRetryInterval = time.Millisecond }, "alpha")
	alpha := cl.keys["alpha"]
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
	cl.rounds(t, 0, 3, "recover")
	if err := cl.headsAndMarkersAgree(); err != nil {
		t.Fatal(err)
	}
}

func TestChunkedSnapshotBoundsStagedMemory(t *testing.T) {
	// The chunked sync ceiling: a snapshot spanning several chunks is
	// adopted through one restore session. Each chunk's blocks are added
	// to the restorer as they are decoded, so the receive path never
	// holds more than the chunk in hand — however long the offered chain
	// is.
	old := snapChunkBlocks
	snapChunkBlocks = 2
	t.Cleanup(func() { snapChunkBlocks = old })

	cl := newCluster(t, 3, "alpha")
	lagger := cl.nodes[2]
	cl.rounds(t, 0, 2, "seed")
	cl.net.Partition([]string{lagger.Name()})
	cl.rounds(t, 0, 8, "ahead")
	// Top up the live window so the offer needs several 2-block chunks.
	for cl.nodes[0].Chain().Head().Number-cl.nodes[0].Chain().Marker()+1 < 5 {
		cl.rounds(t, 0, 1, "window")
	}
	if lagger.Chain().Head().Number >= cl.nodes[0].Chain().Marker() {
		t.Fatal("lagger not behind the marker; snapshot path not exercised")
	}
	cl.net.Heal()
	cl.rounds(t, 0, 2, "heal")
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

func TestSnapshotSessionHoldsNoGoroutine(t *testing.T) {
	// An open offer session is a restorer and nothing else: chunk 0 of a
	// two-chunk offer is restored on the delivery path that handed it
	// over, and no goroutine waits for the rest.
	cl := newCluster(t, 3, "alpha")
	nd := cl.nodes[0]
	genesis := cl.nodes[1].Chain().Blocks()[0]
	first := wire.SnapshotPayload{
		OfferID: 1, Chunk: 0, Last: false,
		Marker: genesis.Header.Number, Head: genesis.Header.Number,
		Blocks: [][]byte{genesis.Encode()},
	}
	before := runtime.NumGoroutine()
	nd.handleSnapshotResp(wire.Envelope{Sender: cl.nodes[1].Name(), Body: wire.EncodeSnapshot(first)})
	if st := nd.SyncStats(); st.OffersStarted != 1 || nd.sess == nil {
		t.Fatalf("chunk 0 did not open a session: %+v", st)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("an open session holds %d goroutine(s)", after-before)
	}
}

package node

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/seldel/seldel/internal/attack"
	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/client"
	"github.com/seldel/seldel/internal/consensus"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/mempool"
	"github.com/seldel/seldel/internal/netsim"
	"github.com/seldel/seldel/internal/simclock"
	"github.com/seldel/seldel/internal/wire"
)

// cluster bundles a simulated anchor-node deployment.
type cluster struct {
	net      *netsim.Network
	registry *identity.Registry
	nodes    []*Node
	keys     map[string]*identity.KeyPair
}

// newCluster builds n anchor nodes on a zero-latency network plus user
// keys for the given participants.
func newCluster(t *testing.T, n int, users ...string) *cluster {
	t.Helper()
	return newClusterWith(t, n, nil, users...)
}

// newClusterWith is newCluster with a per-node hook that adjusts each
// node's Config (fault injection, engine) before the node is built.
func newClusterWith(t *testing.T, n int, tweak func(i int, cfg *Config), users ...string) *cluster {
	t.Helper()
	cl := &cluster{
		net:      netsim.New(netsim.Config{}),
		registry: identity.NewRegistry(),
		keys:     make(map[string]*identity.KeyPair),
	}
	t.Cleanup(cl.net.Close)

	var anchorNames []string
	for i := 0; i < n; i++ {
		anchorNames = append(anchorNames, fmt.Sprintf("anchor-%d", i))
	}
	quorum, err := consensus.NewQuorum(anchorNames)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range anchorNames {
		kp := identity.Deterministic(name, "cluster-test")
		if err := cl.registry.RegisterKey(kp, identity.RoleMaster); err != nil {
			t.Fatal(err)
		}
		cl.keys[name] = kp
	}
	for _, u := range users {
		kp := identity.Deterministic(u, "cluster-test")
		if err := cl.registry.RegisterKey(kp, identity.RoleUser); err != nil {
			t.Fatal(err)
		}
		cl.keys[u] = kp
	}
	for i, name := range anchorNames {
		cfg := Config{
			Key: cl.keys[name],
			Chain: chain.Config{
				SequenceLength: 3,
				MaxSequences:   2,
				Shrink:         chain.ShrinkAllButNewest,
				Registry:       cl.registry,
				Clock:          simclock.NewLogical(0),
			},
			Quorum:  quorum,
			Network: cl.net,
		}
		if tweak != nil {
			tweak(i, &cfg)
		}
		nd, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nd.Close() })
		cl.nodes = append(cl.nodes, nd)
	}
	return cl
}

// newClusterWithByzantine is newCluster with per-index fault injection.
func newClusterWithByzantine(t *testing.T, n int, faults map[int]attack.Behavior, users ...string) *cluster {
	t.Helper()
	return newClusterWith(t, n, func(i int, cfg *Config) { cfg.Byzantine = faults[i] }, users...)
}

// writeAttempts bounds how often write and fill retry a due summary
// whose vote is still in flight. Each attempt flushes the network once
// more; a stalled one costs the pipeline's summary wait per seal try.
const writeAttempts = 50

// write seals entries through node i's pipeline (SubmitWait) and lets
// the network settle. While a due summary vote is still in flight — the
// votes of a WAN drill sit in the delay heap until a flush — the write
// fails with ErrSummaryPending; write then flushes, so the votes land,
// and retries.
func (cl *cluster) write(t *testing.T, i int, entries ...*block.Entry) []mempool.Sealed {
	t.Helper()
	var sealed []mempool.Sealed
	cl.untilSummaryLands(t, func() (err error) {
		sealed, err = cl.nodes[i].SubmitWait(context.Background(), entries...)
		return err
	})
	return sealed
}

// fill seals an empty filler block through node i (Node.AppendEmpty),
// retrying like write.
func (cl *cluster) fill(t *testing.T, i int) *block.Block {
	t.Helper()
	var b *block.Block
	cl.untilSummaryLands(t, func() (err error) {
		b, err = cl.nodes[i].AppendEmpty()
		return err
	})
	return b
}

func (cl *cluster) untilSummaryLands(t *testing.T, op func() error) {
	t.Helper()
	for attempt := 1; ; attempt++ {
		err := op()
		cl.net.Flush()
		if err == nil {
			return
		}
		if !errors.Is(err, ErrSummaryPending) || attempt == writeAttempts {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
	}
}

// rounds writes n single-entry blocks through node i, each an alpha data
// entry tagged with tag and its round.
func (cl *cluster) rounds(t *testing.T, i, n int, tag string) {
	t.Helper()
	for r := 0; r < n; r++ {
		cl.write(t, i, cl.data("alpha", fmt.Sprintf("%s-%d", tag, r)))
	}
}

// data builds a data entry owned and signed by user.
func (cl *cluster) data(user, payload string) *block.Entry {
	return block.NewData(user, []byte(payload)).Sign(cl.keys[user])
}

func (cl *cluster) anchorNames() []string {
	out := make([]string, len(cl.nodes))
	for i, n := range cl.nodes {
		out[i] = n.Name()
	}
	return out
}

func (cl *cluster) headsAgree() bool {
	h := cl.nodes[0].Chain().HeadHash()
	for _, n := range cl.nodes[1:] {
		if n.Chain().HeadHash() != h {
			return false
		}
	}
	return true
}

func TestClusterConvergence(t *testing.T) {
	cl := newCluster(t, 3, "alpha")
	cl.rounds(t, 0, 10, "entry")
	if !cl.headsAgree() {
		t.Fatal("cluster heads diverged")
	}
	// Everyone crossed a merge cycle with the same marker.
	m := cl.nodes[0].Chain().Marker()
	if m == 0 {
		t.Error("no merge happened in 10 blocks")
	}
	for _, n := range cl.nodes {
		if n.Chain().Marker() != m {
			t.Errorf("%s marker %d, want %d", n.Name(), n.Chain().Marker(), m)
		}
		if n.Forked() {
			t.Errorf("%s reports forked", n.Name())
		}
		if err := n.Chain().VerifyIntegrity(); err != nil {
			t.Errorf("%s integrity: %v", n.Name(), err)
		}
	}
}

func TestSummaryDeterminismAcrossNodes(t *testing.T) {
	// E11: every node builds the summary block itself; the gossiped vote
	// only confirms the hash. After convergence all summary blocks are
	// bit-identical.
	cl := newCluster(t, 4, "alpha")
	cl.rounds(t, 0, 6, "p")
	ref := cl.nodes[0].Chain().Blocks()
	for _, n := range cl.nodes[1:] {
		blocks := n.Chain().Blocks()
		if len(blocks) != len(ref) {
			t.Fatalf("%s has %d live blocks, want %d", n.Name(), len(blocks), len(ref))
		}
		for i, b := range blocks {
			if b.Hash() != ref[i].Hash() {
				t.Errorf("%s block %d differs", n.Name(), b.Header.Number)
			}
		}
	}
}

func TestForkOnCorruptedSummary(t *testing.T) {
	// E11: a node with corrupted deletion state computes a different
	// summary, loses the vote, and flags itself forked; the honest
	// majority proceeds.
	cl := newCluster(t, 3, "alpha")
	cl.write(t, 0, cl.data("alpha", "victim")) // block 1 + summary 2 (clean)

	// Corrupt node 2: it believes entry 1/0 is marked for deletion.
	cl.nodes[2].Chain().InjectMarkForTest(block.Ref{Block: 1, Entry: 0})

	// Drive to the next merge, where the corrupted mark changes the
	// summary content (entry not carried → different hash).
	cl.rounds(t, 0, 4, "n")
	if !cl.nodes[2].Forked() {
		t.Error("corrupted node did not detect its fork")
	}
	if cl.nodes[0].Forked() || cl.nodes[1].Forked() {
		t.Error("honest node reports forked")
	}
	if cl.nodes[0].Chain().HeadHash() != cl.nodes[1].Chain().HeadHash() {
		t.Error("honest nodes diverged")
	}
	// The honest chain still carries the victim entry.
	if _, _, ok := cl.nodes[0].Chain().Lookup(block.Ref{Block: 1, Entry: 0}); !ok {
		t.Error("honest chain lost the entry")
	}
}

func TestClientStatusMajority(t *testing.T) {
	cl := newCluster(t, 3, "alpha", "user")
	cli, err := client.New(cl.keys["user"], cl.registry, cl.net, cl.anchorNames())
	if err != nil {
		t.Fatal(err)
	}

	cl.rounds(t, 0, 4, "p")
	status, err := cli.QueryStatus()
	if err != nil {
		t.Fatalf("QueryStatus: %v", err)
	}
	if status.Agreeing != 3 || status.Queried != 3 {
		t.Errorf("status agreement %d/%d, want 3/3", status.Agreeing, status.Queried)
	}
	if status.HeadHash != cl.nodes[0].Chain().HeadHash() {
		t.Error("status head differs from chain head")
	}
	if status.Marker != cl.nodes[0].Chain().Marker() {
		t.Error("status marker differs")
	}
}

func TestClientSubmitAndVerifiedLookup(t *testing.T) {
	cl := newCluster(t, 3, "user")
	cli, err := client.New(cl.keys["user"], cl.registry, cl.net, cl.anchorNames())
	if err != nil {
		t.Fatal(err)
	}

	// One anchor seals the write.
	ref := cl.write(t, 0, cl.data("user", "hello chain"))[0].Ref
	if b, _ := cl.nodes[0].Chain().Block(ref.Block); len(b.Entries) != 1 {
		t.Fatalf("sealed block has %d entries", len(b.Entries))
	}

	got, err := cli.Lookup(cl.nodes[1].Name(), ref)
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if string(got.Entry.Payload) != "hello chain" {
		t.Errorf("payload = %q", got.Entry.Payload)
	}
	if got.Entry.Owner != "user" {
		t.Errorf("owner = %q", got.Entry.Owner)
	}
	// Drive past a merge so the entry migrates into a summary block, then
	// look it up again — same ref, now carried.
	for i := 0; i < 8; i++ {
		cl.write(t, 0, cl.data("user", fmt.Sprintf("n%d", i)))
	}
	got2, err := cli.Lookup(cl.nodes[2].Name(), ref)
	if err != nil {
		t.Fatalf("Lookup after merge: %v", err)
	}
	if !got2.Carried {
		t.Error("entry should be carried after merge")
	}
	if string(got2.Entry.Payload) != "hello chain" {
		t.Errorf("payload after merge = %q", got2.Entry.Payload)
	}
}

func TestClientLookupDeletedEntry(t *testing.T) {
	cl := newCluster(t, 3, "user")
	cli, err := client.New(cl.keys["user"], cl.registry, cl.net, cl.anchorNames())
	if err != nil {
		t.Fatal(err)
	}

	ref := cl.write(t, 0, cl.data("user", "to be forgotten"))[0].Ref
	cl.write(t, 0, block.NewDeletion("user", ref).Sign(cl.keys["user"]))
	// Drive until physically forgotten everywhere.
	for i := 0; i < 10; i++ {
		cl.write(t, 0, cl.data("user", fmt.Sprintf("n%d", i)))
	}
	if _, err := cli.Lookup(cl.nodes[0].Name(), ref); !errors.Is(err, client.ErrNotFound) {
		t.Errorf("Lookup deleted = %v, want ErrNotFound", err)
	}
	for _, n := range cl.nodes {
		if _, _, ok := n.Chain().Lookup(ref); ok {
			t.Errorf("%s still resolves the deleted entry", n.Name())
		}
	}
}

func TestPartitionIsolatesNode(t *testing.T) {
	// §V-B.4 node isolation: a partitioned anchor stops receiving blocks;
	// the majority continues. Clients in the majority partition still get
	// a consistent answer.
	cl := newCluster(t, 3, "alpha", "user")
	cli, err := client.New(cl.keys["user"], cl.registry, cl.net, cl.anchorNames())
	if err != nil {
		t.Fatal(err)
	}

	cl.write(t, 0, cl.data("alpha", "before"))

	// Isolate anchor-2 (the client stays with the majority).
	cl.net.Partition([]string{cl.nodes[2].Name()})
	cl.rounds(t, 0, 3, "during")
	if cl.nodes[2].Chain().Head().Number >= cl.nodes[0].Chain().Head().Number {
		t.Error("isolated node kept up impossibly")
	}
	status, err := cli.QueryStatus()
	if err != nil {
		t.Fatalf("QueryStatus during partition: %v", err)
	}
	if status.Agreeing < 2 {
		t.Errorf("majority too small: %d", status.Agreeing)
	}
	if status.HeadNumber != cl.nodes[0].Chain().Head().Number {
		t.Error("client status does not match majority head")
	}
}

func TestStalledSubmitAnnouncesOnce(t *testing.T) {
	// A write that lands on a due summary slot its node cannot get voted
	// through announces the vote once and fails with ErrSummaryPending;
	// the pipeline does not re-seal it (re-announcing is the job of
	// VoteRetryInterval and the caller).
	cl := newCluster(t, 3, "alpha")
	nd := cl.nodes[0]
	cl.net.Partition([]string{nd.Name()})
	ctx := context.Background()
	if _, err := nd.SubmitWait(ctx, cl.data("alpha", "last normal")); err != nil {
		t.Fatal(err)
	}
	if !nd.Chain().NextIsSummary() {
		t.Fatalf("head %d: next slot is not a summary slot; test is vacuous", nd.Chain().Head().Number)
	}
	before := cl.net.Stats().Dropped
	if _, err := nd.SubmitWait(ctx, cl.data("alpha", "stalled")); !errors.Is(err, ErrSummaryPending) {
		t.Fatalf("SubmitWait on a stalled summary = %v, want ErrSummaryPending", err)
	}
	// One announcement, to two unreachable peers.
	if got := cl.net.Stats().Dropped - before; got != 2 {
		t.Fatalf("stalled SubmitWait sent %d messages into the partition, want 2", got)
	}
}

func TestNodeConfigDefaults(t *testing.T) {
	reg := identity.NewRegistry()
	kp := identity.Deterministic("solo", "cluster-test")
	if err := reg.RegisterKey(kp, identity.RoleMaster); err != nil {
		t.Fatal(err)
	}
	// No network, no quorum, no engine: single-node operation.
	nd, err := New(Config{
		Key: kp,
		Chain: chain.Config{
			SequenceLength: 3,
			Registry:       reg,
			Clock:          simclock.NewLogical(0),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	if _, err := nd.SubmitWait(context.Background(), block.NewData("solo", []byte("x")).Sign(kp)); err != nil {
		t.Fatalf("solo write: %v", err)
	}
	// Single-member quorum self-approves the summary.
	if nd.Chain().Head().Number != 2 {
		t.Errorf("head = %d, want 2 (normal + self-approved summary)", nd.Chain().Head().Number)
	}
	if _, err := New(Config{}); err == nil {
		t.Error("node without key accepted")
	}
}

func TestPartitionHealCatchUpIncremental(t *testing.T) {
	// A node isolated for less than a full retention cycle re-syncs
	// incrementally from the first gossiped block after the heal.
	cl := newCluster(t, 3, "alpha")
	cl.write(t, 0, cl.data("alpha", "before"))
	cl.net.Partition([]string{cl.nodes[2].Name()})
	cl.rounds(t, 0, 2, "during")
	if cl.nodes[2].Chain().Head().Number >= cl.nodes[0].Chain().Head().Number {
		t.Fatal("isolation had no effect")
	}
	cl.net.Heal()
	// The next write's gossiped block triggers the catch-up.
	cl.write(t, 0, cl.data("alpha", "after"))
	if got, want := cl.nodes[2].Chain().HeadHash(), cl.nodes[0].Chain().HeadHash(); got != want {
		t.Errorf("lagging node did not catch up: %s vs %s", got, want)
	}
	if cl.nodes[2].Forked() {
		t.Error("recovered node reports forked")
	}
}

func TestPartitionHealStatusQuoAdoption(t *testing.T) {
	// A node isolated across a full merge cycle falls behind the quorum's
	// Genesis marker; its continuation blocks were physically deleted, so
	// it must adopt the majority's live chain (§IV-C / §V-B.4).
	cl := newCluster(t, 3, "alpha")
	cl.write(t, 0, cl.data("alpha", "genesis-era"))
	cl.net.Partition([]string{cl.nodes[2].Name()})
	// Drive the majority through at least one marker shift.
	cl.rounds(t, 0, 8, "during")
	if cl.nodes[0].Chain().Marker() == 0 {
		t.Fatal("majority never shifted the marker; test is vacuous")
	}
	if cl.nodes[2].Chain().Head().Number > cl.nodes[0].Chain().Marker() {
		t.Fatalf("isolated node head %d not behind majority marker %d",
			cl.nodes[2].Chain().Head().Number, cl.nodes[0].Chain().Marker())
	}
	cl.net.Heal()
	// The second round lets the adopted node also receive post-adoption
	// blocks.
	cl.rounds(t, 0, 2, "after-heal")
	if got, want := cl.nodes[2].Chain().HeadHash(), cl.nodes[0].Chain().HeadHash(); got != want {
		t.Errorf("node did not adopt the status quo: head %s vs %s", got, want)
	}
	if cl.nodes[2].Chain().Marker() != cl.nodes[0].Chain().Marker() {
		t.Errorf("markers differ after adoption: %d vs %d",
			cl.nodes[2].Chain().Marker(), cl.nodes[0].Chain().Marker())
	}
	if err := cl.nodes[2].Chain().VerifyIntegrity(); err != nil {
		t.Errorf("adopted chain invalid: %v", err)
	}
}

func TestSyncIgnoresNonQuorumSenders(t *testing.T) {
	// Catch-up data is only accepted from authenticated quorum members;
	// a registered user cannot feed a node a replacement chain — not
	// incrementally, and not via a snapshot-adoption offer.
	cl := newCluster(t, 2, "alpha")
	userKey := cl.keys["alpha"]
	ep, err := cl.net.Join("outsider", func(netsim.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	genesis := cl.nodes[0].Chain().Blocks()[0].Encode()
	headBefore := cl.nodes[1].Chain().HeadHash()
	fakeSync := wire.SyncRespPayload{Blocks: [][]byte{genesis}}
	if err := ep.Send(cl.nodes[1].Name(), wire.KindSyncResp,
		wire.SealEnvelope(userKey, wire.KindSyncResp, wire.EncodeSyncResp(fakeSync))); err != nil {
		t.Fatal(err)
	}
	fakeSnap := wire.SnapshotPayload{Marker: 0, Head: 0, Blocks: [][]byte{genesis}}
	if err := ep.Send(cl.nodes[1].Name(), wire.KindSnapshotResp,
		wire.SealEnvelope(userKey, wire.KindSnapshotResp, wire.EncodeSnapshot(fakeSnap))); err != nil {
		t.Fatal(err)
	}
	cl.net.Flush()
	if cl.nodes[1].Chain().HeadHash() != headBefore {
		t.Error("non-quorum sync response mutated the chain")
	}
}

func TestProofOfAuthorityCluster(t *testing.T) {
	// Rotating proposers under the PoA engine: each anchor seals only its
	// own slots; everyone converges including across merges (E12 in a
	// distributed setting).
	const anchors = 3
	net := netsim.New(netsim.Config{})
	t.Cleanup(net.Close)
	registry := identity.NewRegistry()
	names := make([]string, anchors)
	for i := range names {
		names[i] = fmt.Sprintf("auth-%d", i)
	}
	quorum, err := consensus.NewQuorum(names)
	if err != nil {
		t.Fatal(err)
	}
	alpha := identity.Deterministic("alpha", "cluster-test")
	if err := registry.RegisterKey(alpha, identity.RoleUser); err != nil {
		t.Fatal(err)
	}
	nodes := make([]*Node, anchors)
	for i, name := range names {
		kp := identity.Deterministic(name, "cluster-test")
		if err := registry.RegisterKey(kp, identity.RoleMaster); err != nil {
			t.Fatal(err)
		}
		engine, err := consensus.NewAuthority(names, name)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i], err = New(Config{
			Key: kp,
			Chain: chain.Config{
				SequenceLength: 3,
				MaxSequences:   2,
				Registry:       registry,
				Clock:          simclock.NewLogical(0),
			},
			Engine:  engine,
			Quorum:  quorum,
			Network: net,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	cl := &cluster{net: net, registry: registry, nodes: nodes, keys: map[string]*identity.KeyPair{"alpha": alpha}}
	for round := 0; round < 9; round++ {
		// The slot leader for the next block writes.
		next := nodes[0].Chain().NextNumber()
		cl.write(t, int(next%uint64(anchors)), cl.data("alpha", fmt.Sprintf("r%d", round)))
	}
	h := nodes[0].Chain().HeadHash()
	for _, n := range nodes[1:] {
		if n.Chain().HeadHash() != h {
			t.Errorf("%s diverged under PoA", n.Name())
		}
	}
	if nodes[0].Chain().Marker() == 0 {
		t.Error("no merge cycle crossed")
	}
	// A non-leader cannot seal its slot.
	next := nodes[0].Chain().NextNumber()
	wrong := nodes[int((next+1)%uint64(anchors))]
	if _, err := wrong.AppendEmpty(); !errors.Is(err, consensus.ErrNotLeader) {
		t.Errorf("non-leader filler: %v, want ErrNotLeader", err)
	}
}

func TestLossyNetworkRecoversViaSync(t *testing.T) {
	// Gossip loss is repaired by the catch-up protocol: blocks dropped on
	// the way to a follower are fetched via sync_req at the next gossip
	// that reveals the gap.
	cl := newCluster(t, 3, "alpha")
	// write retries while the summary vote is pending: votes may be lost,
	// and every seal attempt re-announces ours, which the peers answer.
	cl.net.SetDropRate(0.25)
	cl.rounds(t, 0, 20, "lossy")
	// Stop losing messages and drive a few clean rounds so stragglers
	// catch up via sync.
	cl.net.SetDropRate(0)
	cl.rounds(t, 0, 4, "clean")
	h := cl.nodes[0].Chain().HeadHash()
	for _, n := range cl.nodes[1:] {
		if n.Chain().HeadHash() != h {
			t.Errorf("%s did not recover from message loss (head %d vs %d)",
				n.Name(), n.Chain().Head().Number, cl.nodes[0].Chain().Head().Number)
		}
		if err := n.Chain().VerifyIntegrity(); err != nil {
			t.Errorf("%s integrity: %v", n.Name(), err)
		}
	}
}

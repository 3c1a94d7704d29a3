package node

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/seldel/seldel/internal/attack"
	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/consensus"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/mempool"
	"github.com/seldel/seldel/internal/netsim"
	"github.com/seldel/seldel/internal/simclock"
	"github.com/seldel/seldel/internal/store/segment"
	"github.com/seldel/seldel/internal/verify"
	"github.com/seldel/seldel/internal/wire"
)

// The scenario suite: multi-phase failure drills for the cluster layer,
// scripted on the netsim scenario harness so every phase observes a
// settled network and failures name the step that broke.

// headsAndMarkersAgree returns an error naming the first diverged node.
func (cl *cluster) headsAndMarkersAgree() error {
	ref := cl.nodes[0].Chain()
	for _, n := range cl.nodes[1:] {
		c := n.Chain()
		if c.HeadHash() != ref.HeadHash() {
			return fmt.Errorf("%s head %d/%s diverges from %s head %d/%s",
				n.Name(), c.Head().Number, c.HeadHash(), cl.nodes[0].Name(), ref.Head().Number, ref.HeadHash())
		}
		if c.Marker() != ref.Marker() {
			return fmt.Errorf("%s marker %d != %d", n.Name(), c.Marker(), ref.Marker())
		}
	}
	return nil
}

func TestDeletionPropagationUnderPartition(t *testing.T) {
	// The satellite scenario: a deletion is requested, approved, and
	// physically executed on the majority side of a partition; after the
	// heal the minority — whose heads predate the quorum's new Genesis
	// marker — adopts the truncated status quo via the snapshot message
	// and converges to a chain where the victim entry no longer exists.
	cl := newCluster(t, 5, "alpha", "user")
	sc := netsim.NewScenario(cl.net)

	var victim block.Ref
	_ = sc.Step("seed a victim entry", func() error {
		victim = cl.write(t, 0, cl.data("user", "right to be forgotten"))[0].Ref
		return nil
	})
	minority := []string{cl.nodes[3].Name(), cl.nodes[4].Name()}
	_ = sc.Partition("isolate a 2-node minority", minority)
	_ = sc.Step("majority approves the deletion", func() error {
		cl.write(t, 0, block.NewDeletion("user", victim).Sign(cl.keys["user"]))
		if !cl.nodes[0].Chain().IsMarked(victim) && !deleted(cl.nodes[0], victim) {
			return fmt.Errorf("deletion request had no effect on the majority")
		}
		return nil
	})
	_ = sc.Step("majority truncates past the victim", func() error {
		cl.rounds(t, 0, 8, "during")
		maj := cl.nodes[0].Chain()
		if maj.Marker() <= victim.Block {
			return fmt.Errorf("marker %d never passed victim block %d; scenario is vacuous", maj.Marker(), victim.Block)
		}
		if !deleted(cl.nodes[0], victim) {
			return fmt.Errorf("victim still resolvable on the majority")
		}
		// The scenario must exercise snapshot adoption, not incremental
		// catch-up: the minority heads predate the new marker.
		for _, n := range cl.nodes[3:] {
			if n.Chain().Head().Number >= maj.Marker() {
				return fmt.Errorf("%s head %d not behind the majority marker %d",
					n.Name(), n.Chain().Head().Number, maj.Marker())
			}
			if !resolvable(n, victim) {
				return fmt.Errorf("%s lost the victim before the heal", n.Name())
			}
		}
		return nil
	})
	_ = sc.Heal("heal the partition")
	_ = sc.Step("gossip a round so the minority syncs", func() error {
		cl.rounds(t, 0, 2, "after")
		return nil
	})
	_ = sc.Check("minority adopted the truncated status quo", func() error {
		if err := cl.headsAndMarkersAgree(); err != nil {
			return err
		}
		for _, n := range cl.nodes {
			if !deleted(n, victim) {
				return fmt.Errorf("%s still resolves the deleted entry", n.Name())
			}
			if n.Forked() {
				return fmt.Errorf("%s reports forked after adoption", n.Name())
			}
			if err := n.Chain().VerifyIntegrity(); err != nil {
				return fmt.Errorf("%s integrity: %w", n.Name(), err)
			}
			// No genesis replay: the first live block IS the marker block.
			if first := n.Chain().Blocks()[0].Header.Number; first != n.Chain().Marker() || first == 0 {
				return fmt.Errorf("%s live chain starts at %d, marker %d — not snapshot-anchored",
					n.Name(), first, n.Chain().Marker())
			}
		}
		return nil
	})
	if sc.Err() != nil {
		for _, step := range sc.History() {
			t.Logf("step %-45s err=%v", step.Name, step.Err)
		}
		t.Fatal(sc.Err())
	}
}

func resolvable(n *Node, ref block.Ref) bool {
	_, _, ok := n.Chain().Lookup(ref)
	return ok
}

func deleted(n *Node, ref block.Ref) bool {
	return !resolvable(n, ref)
}

func TestDeletionDuringSyncConverges(t *testing.T) {
	// A deletion request lands while the healed minority is still
	// adopting the snapshot: the fresh request gossips concurrently with
	// the snapshot and incremental sync traffic, and everyone still
	// converges on the doubly-truncated chain.
	cl := newCluster(t, 5, "alpha", "user")
	user := cl.keys["user"]

	first := cl.write(t, 0, cl.data("user", "first victim"))[0].Ref
	second := cl.write(t, 0, cl.data("user", "second victim"))[0].Ref

	cl.net.Partition([]string{cl.nodes[3].Name(), cl.nodes[4].Name()})
	cl.write(t, 0, block.NewDeletion("user", first).Sign(user))
	cl.rounds(t, 0, 8, "partitioned")
	if cl.nodes[0].Chain().Marker() <= first.Block {
		t.Fatal("first deletion never truncated; test is vacuous")
	}

	// Heal, and in the same breath push a second deletion into the mix:
	// the minority's sync and the new request's block race on the wire.
	cl.net.Heal()
	cl.write(t, 0, block.NewDeletion("user", second).Sign(user))
	cl.rounds(t, 0, 8, "healed")

	if err := cl.headsAndMarkersAgree(); err != nil {
		t.Fatal(err)
	}
	for _, n := range cl.nodes {
		if resolvable(n, first) {
			t.Errorf("%s still resolves the first victim", n.Name())
		}
		if resolvable(n, second) {
			t.Errorf("%s still resolves the second victim (deleted during sync)", n.Name())
		}
	}
}

func TestRestartRestoresFromSnapshotStore(t *testing.T) {
	// A node with a segment store restarts: its chain comes back from
	// the store's live suffix (no genesis replay), it rejoins
	// under its old name, and catches up incrementally.
	cl := newCluster(t, 3, "alpha")
	dir := t.TempDir()
	st, err := segment.Open(dir, segment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// The stored node is a non-voting follower: it shares the 3-member
	// quorum definition (so it trusts the members' votes and sync data)
	// without being a member itself — the members ignore its votes.
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
	stored, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	cl.rounds(t, 0, 8, "before-restart")
	if cl.nodes[0].Chain().Marker() == 0 {
		t.Fatal("no marker shift before restart; test is vacuous")
	}
	if stored.Chain().HeadHash() != cl.nodes[0].Chain().HeadHash() {
		t.Fatal("stored follower diverged before restart")
	}
	if err := stored.Chain().CompactWait(context.Background()); err != nil {
		t.Fatal(err)
	}
	headBefore := stored.Chain().Head().Number
	markerBefore := stored.Chain().Marker()
	if err := stored.Close(); err != nil {
		t.Fatal(err)
	}

	// The cluster moves on while the node is down.
	cl.rounds(t, 0, 2, "while-down")

	// A restart crosses no trust boundary: with a verifier of its own,
	// the node opens its store without one signature verification (the
	// drill holds no co-signed deletion request).
	ver := verify.New(verify.Options{})
	defer ver.Close()
	cfg.Chain.Verifier = ver
	restarted, err := New(cfg)
	if err != nil {
		t.Fatalf("restart from store: %v", err)
	}
	defer restarted.Close()
	c := restarted.Chain()
	if v := ver.Stats().Verified; v != 0 {
		t.Errorf("restart from the node's own store verified %d signatures, want 0", v)
	}
	if c.Head().Number != headBefore {
		t.Errorf("restored head %d, want %d", c.Head().Number, headBefore)
	}
	if c.Marker() != markerBefore || c.Marker() == 0 {
		t.Errorf("restored marker %d, want %d (non-zero)", c.Marker(), markerBefore)
	}
	// Snapshot restore: the live chain starts at the marker block, and
	// only the live suffix was replayed — no genesis in sight.
	if first := c.Blocks()[0].Header.Number; first != c.Marker() {
		t.Errorf("restored chain starts at %d, marker %d — genesis replay?", first, c.Marker())
	}
	if got, want := c.Stats().AppendedBlocks, uint64(len(c.Blocks())); got != want {
		t.Errorf("restore replayed %d blocks for %d live ones", got, want)
	}

	// Rejoined under the old name: the next proposal's gossip reveals
	// the gap and incremental sync closes it.
	cl.rounds(t, 0, 2, "after-restart")
	if restarted.Chain().HeadHash() != cl.nodes[0].Chain().HeadHash() {
		t.Errorf("restarted node did not catch up: head %d vs %d",
			restarted.Chain().Head().Number, cl.nodes[0].Chain().Head().Number)
	}
	if err := restarted.Chain().VerifyIntegrity(); err != nil {
		t.Errorf("restarted chain integrity: %v", err)
	}
}

func TestByzantineNonVoterToleranceAndLiveness(t *testing.T) {
	// Silent members at the tolerance bound: a 5-member quorum needs 3
	// identical votes, so 2 members may withhold and the marker still
	// shifts; the silent nodes follow the decisions they observe.
	if tol := attack.WithholdingTolerance(5); tol != 2 {
		t.Fatalf("WithholdingTolerance(5) = %d, want 2", tol)
	}
	cl := newClusterWithByzantine(t, 5,
		map[int]attack.Behavior{3: attack.VoteWithholding, 4: attack.VoteWithholding}, "alpha")
	cl.rounds(t, 0, 8, "tolerated")
	if cl.nodes[0].Chain().Marker() == 0 {
		t.Fatal("quorum with one silent member never shifted the marker")
	}
	if err := cl.headsAndMarkersAgree(); err != nil {
		t.Fatalf("silent member diverged: %v", err)
	}
	for _, n := range cl.nodes {
		if n.Forked() {
			t.Errorf("%s reports forked", n.Name())
		}
	}

	// Beyond the bound liveness is lost (safety holds): with 2 of 3
	// members silent the 2-vote threshold is unreachable and writes
	// stall at the summary slot with ErrSummaryPending.
	stuck := newClusterWithByzantine(t, 3,
		map[int]attack.Behavior{1: attack.VoteWithholding, 2: attack.VoteWithholding}, "alpha")
	var lastErr error
	for i := 0; i < 6 && lastErr == nil; i++ {
		_, lastErr = stuck.nodes[0].SubmitWait(context.Background(), stuck.data("alpha", fmt.Sprintf("stall-%d", i)))
		stuck.net.Flush()
	}
	if !errors.Is(lastErr, ErrSummaryPending) {
		t.Errorf("over-tolerance quorum: SubmitWait = %v, want ErrSummaryPending", lastErr)
	}
	if stuck.nodes[0].Chain().Marker() != 0 {
		t.Error("marker shifted without a quorum majority")
	}
}

func TestLaggingNodeCatchesUp(t *testing.T) {
	// One member on a slow link: proposals do not wait for it (the other
	// two reach the vote threshold alone), and its deliveries — however
	// late — bring it to the same head.
	cl := newCluster(t, 3, "alpha")
	laggard := cl.nodes[2].Name()
	cl.net.SetPeerLatency(laggard, 2*time.Millisecond)
	cl.rounds(t, 0, 6, "lagged")
	cl.net.SetPeerLatency(laggard, 0)
	cl.rounds(t, 0, 2, "recovered")
	if err := cl.headsAndMarkersAgree(); err != nil {
		t.Fatal(err)
	}
}

func TestNodeSubmitPipelineConcurrent(t *testing.T) {
	// The tentpole write path: concurrent local producers coalesce
	// through the node's proposal pipeline, receipts resolve to stable
	// refs, and the whole cluster converges on the proposed blocks.
	cl := newCluster(t, 3, "alpha")
	alpha := cl.keys["alpha"]
	const producers = 8
	const perProducer = 12
	ctx := context.Background()
	var wg sync.WaitGroup
	errCh := make(chan error, producers)
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				e := block.NewData("alpha", []byte(fmt.Sprintf("w%d-%d", w, i))).Sign(alpha)
				var sealed []mempool.Sealed
				err := cl.retrySummary(func() (err error) {
					sealed, err = cl.nodes[0].SubmitWait(ctx, e)
					return err
				})
				if err != nil {
					errCh <- fmt.Errorf("producer %d: %w", w, err)
					return
				}
				if _, _, ok := cl.nodes[0].Chain().Lookup(sealed[0].Ref); !ok {
					errCh <- fmt.Errorf("producer %d: sealed ref %v not resolvable", w, sealed[0].Ref)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	cl.net.Flush()
	// Concurrent production crossed summary slots; peers followed.
	if err := cl.headsAndMarkersAgree(); err != nil {
		t.Fatal(err)
	}
	for _, n := range cl.nodes {
		if err := n.Chain().VerifyIntegrity(); err != nil {
			t.Errorf("%s integrity: %v", n.Name(), err)
		}
	}
	stats := cl.nodes[0].PipelineStats()
	if stats.Batches == 0 {
		t.Error("proposal pipeline sealed no batches")
	}
	if stats.Entries != producers*perProducer {
		t.Errorf("pipeline sealed %d entries, want %d", stats.Entries, producers*perProducer)
	}
	// Coalescing happened: fewer batches than entries is the point of
	// routing proposals through the batcher.
	if stats.Batches > stats.Entries {
		t.Errorf("batches %d > entries %d", stats.Batches, stats.Entries)
	}
}

func TestNodeSubmitDeletionReceiptOutcome(t *testing.T) {
	// Deletion requests submitted through the node pipeline precheck
	// their co-signatures before the vote and surface the mark outcome
	// on the receipt.
	cl := newCluster(t, 3, "alpha", "user")
	ctx := context.Background()
	user := cl.keys["user"]
	sealed, err := cl.nodes[0].SubmitWait(ctx, block.NewData("user", []byte("target")).Sign(user))
	if err != nil {
		t.Fatal(err)
	}
	cl.net.Flush()
	del, err := cl.nodes[0].SubmitWait(ctx, block.NewDeletion("user", sealed[0].Ref).Sign(user))
	if err != nil {
		t.Fatal(err)
	}
	if del[0].Mark != mempool.MarkApproved {
		t.Errorf("deletion receipt mark = %v, want approved", del[0].Mark)
	}
	cl.net.Flush()
	for _, n := range cl.nodes {
		if !n.Chain().IsMarked(sealed[0].Ref) {
			t.Errorf("%s did not adopt the deletion mark", n.Name())
		}
	}
}

// putFailing is a store that stops accepting blocks at a given number.
type putFailing struct {
	*segment.Store
	from uint64
}

func (s putFailing) PutBlock(b *block.Block) error {
	if b.Header.Number >= s.from {
		return errors.New("disk full")
	}
	return s.Store.PutBlock(b)
}

func TestStoreErrReportsFailedWrite(t *testing.T) {
	kp := identity.Deterministic("solo", "cluster-test")
	reg := identity.NewRegistry()
	if err := reg.RegisterKey(kp, identity.RoleMaster); err != nil {
		t.Fatal(err)
	}
	disk, err := segment.Open(t.TempDir(), segment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	n, err := New(Config{
		Key:   kp,
		Chain: chain.Config{SequenceLength: 3, Registry: reg, Clock: simclock.NewLogical(0)},
		Store: putFailing{disk, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.StoreErr(); err != nil {
		t.Fatalf("StoreErr before any write: %v", err)
	}
	// The node's own writes fail closed, like a chain's: the write whose
	// block did not persist does not resolve OK...
	ctx := context.Background()
	if _, err := n.SubmitWait(ctx, block.NewData("solo", []byte("x")).Sign(kp)); !errors.Is(err, chain.ErrStore) {
		t.Fatalf("SubmitWait whose block failed to persist: %v, want ErrStore", err)
	}
	if err := n.StoreErr(); !errors.Is(err, chain.ErrStore) {
		t.Errorf("StoreErr after a failed block write: %v, want ErrStore", err)
	}
	// ...and nothing more is sealed.
	head := n.Chain().HeadHash()
	if _, err := n.SubmitWait(ctx, block.NewData("solo", []byte("y")).Sign(kp)); !errors.Is(err, chain.ErrStore) {
		t.Errorf("SubmitWait after the store failed: %v, want ErrStore", err)
	}
	if got := n.Chain().HeadHash(); got != head {
		t.Errorf("head moved after the store failed: %s, was %s", got, head)
	}
}

// TestFailedStoreStopsAppendsAndVotes: once a node's store refused a
// block, the node fails closed towards its peers too. It appends no
// gossiped block after that one, and it sends no summary vote (no
// announcement, no retry, no repair answer) for a Σ it could not store,
// while the rest of the quorum goes on without it.
func TestFailedStoreStopsAppendsAndVotes(t *testing.T) {
	cl := newClusterWith(t, 3, func(i int, cfg *Config) {
		if i != 0 {
			return
		}
		disk, err := segment.Open(t.TempDir(), segment.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { disk.Close() })
		cfg.Store = putFailing{disk, 1}
		cfg.VoteRetryInterval = time.Millisecond
	}, "user")
	failed := cl.nodes[0]
	// Node 1 seals block 1; node 0 appends the gossiped copy, and its
	// store refuses it.
	cl.write(t, 1, cl.data("user", "first"))
	if err := failed.StoreErr(); !errors.Is(err, chain.ErrStore) {
		t.Fatalf("StoreErr after the refused block: %v, want ErrStore", err)
	}
	head := failed.Chain().Head().Number
	for i := 0; i < 4; i++ {
		cl.write(t, 1, cl.data("user", fmt.Sprintf("next-%d", i)))
	}
	// Give a vote retry time to fire, were one armed.
	time.Sleep(10 * time.Millisecond)
	cl.net.Flush()
	if got := cl.nodes[1].Chain().Head().Number; got <= head+1 {
		t.Fatalf("the quorum stopped at block %d", got)
	}
	if got := failed.Chain().Head().Number; got != head {
		t.Errorf("the failed node appended gossiped blocks up to %d after its store failed at %d", got, head)
	}
	for _, peer := range cl.nodes[1:] {
		peer.mu.Lock()
		for num, st := range peer.tallies {
			if _, ok := st.voted[failed.Name()]; ok {
				t.Errorf("%s counted a vote of the failed node for summary %d", peer.Name(), num)
			}
		}
		peer.mu.Unlock()
	}
}

// syncGated is a segment store whose Sync notes the highest block
// stored when it started, once the sync has returned, and can be held
// until the test releases it.
type syncGated struct {
	*segment.Store
	stored, durable atomic.Uint64
	syncs           atomic.Int64
	mu              sync.Mutex
	hold            chan struct{}
}

func (s *syncGated) PutBlock(b *block.Block) error {
	if err := s.Store.PutBlock(b); err != nil {
		return err
	}
	s.stored.Store(b.Header.Number)
	return nil
}

func (s *syncGated) Sync() error {
	covers := s.stored.Load()
	s.mu.Lock()
	hold := s.hold
	s.mu.Unlock()
	if hold != nil {
		<-hold
	}
	if err := s.Store.Sync(); err != nil {
		return err
	}
	s.durable.Store(covers)
	s.syncs.Add(1)
	return nil
}

// TestNodeGroupCommitReceiptFollowsItsSync: a node on a store in
// DurabilityGroup resolves a receipt only after a sync that started
// after the receipt's block was stored has returned, like a chain's
// own pipeline; while that sync is held, the receipt waits.
func TestNodeGroupCommitReceiptFollowsItsSync(t *testing.T) {
	kp := identity.Deterministic("solo", "cluster-test")
	reg := identity.NewRegistry()
	if err := reg.RegisterKey(kp, identity.RoleMaster); err != nil {
		t.Fatal(err)
	}
	disk, err := segment.Open(t.TempDir(), segment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	s := &syncGated{Store: disk}
	n, err := New(Config{
		Key: kp,
		Chain: chain.Config{
			SequenceLength: 3, Registry: reg, Clock: simclock.NewLogical(0),
			Durability: chain.Durability{Mode: chain.DurabilityGroup},
		},
		Store: s,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	// The sync of the backfilled genesis is no group commit.
	s.syncs.Store(0)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		sealed, err := n.SubmitWait(ctx, block.NewData("solo", []byte(fmt.Sprintf("g%d", i))).Sign(kp))
		if err != nil {
			t.Fatal(err)
		}
		if d := s.durable.Load(); d < sealed[0].Block {
			t.Fatalf("receipt for block %d resolved with blocks up to %d synced (%d syncs)", sealed[0].Block, d, s.syncs.Load())
		}
	}
	if s.syncs.Load() == 0 {
		t.Fatal("group receipts resolved without any sync")
	}

	// Hold the sync: the next block is stored, its receipt waits.
	s.mu.Lock()
	s.hold = make(chan struct{})
	hold := s.hold
	s.mu.Unlock()
	stored := s.stored.Load()
	receipts, err := n.Submit(ctx, block.NewData("solo", []byte("held")).Sign(kp))
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); s.stored.Load() == stored; {
		if time.Now().After(deadline) {
			t.Fatal("block never stored while the sync was held")
		}
		time.Sleep(time.Millisecond)
	}
	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	_, werr := receipts[0].Wait(short)
	cancel()
	if !errors.Is(werr, context.DeadlineExceeded) {
		t.Fatalf("receipt resolved while its sync was held: %v", werr)
	}
	s.mu.Lock()
	s.hold = nil
	s.mu.Unlock()
	close(hold)
	sealed, err := receipts[0].Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if d := s.durable.Load(); d < sealed.Block {
		t.Fatalf("held receipt for block %d resolved with blocks up to %d synced", sealed.Block, d)
	}
}

// TestGossipedBlockWithEditedPayloadIsRefused: a gossiped block whose
// entries are not the ones its header commits to is not appended, even
// when every entry is validly signed. The node decodes gossip without
// a shape check; the chain's append is where the body is re-committed
// against the header.
func TestGossipedBlockWithEditedPayloadIsRefused(t *testing.T) {
	cl := newCluster(t, 2, "user")
	sender, receiver := cl.nodes[1], cl.nodes[0]
	head := receiver.Chain().Head()
	entry := cl.data("user", "original")
	original := block.NewNormal(head.Number+1, head.Time+1, head.Hash(), []*block.Entry{entry})
	edited := block.NewNormal(head.Number+1, head.Time+1, head.Hash(), []*block.Entry{entry})
	edited.Entries = []*block.Entry{cl.data("user", "edited")}
	gossip := func(b *block.Block) {
		sender.ep.Broadcast(wire.KindBlock, wire.SealEnvelope(sender.key, wire.KindBlock, b.Encode()))
		cl.net.Flush()
	}
	gossip(edited)
	if got := receiver.Chain().Head().Number; got != head.Number {
		t.Fatalf("block with an edited payload appended: head %d, was %d", got, head.Number)
	}
	// The same slot takes the block as its header committed it.
	gossip(original)
	if b, ok := receiver.Chain().Block(head.Number + 1); !ok || b.Hash() != original.Hash() {
		t.Fatal("the unedited block was not appended")
	}
}

func TestSubmitRejectsBadEntriesOnTheirOwnReceipts(t *testing.T) {
	// One call mixes valid entries with an unsigned entry, an entry
	// signed by someone other than its owner, and a deletion request
	// whose co-signature is forged. Each bad entry fails on its own
	// receipt; the valid ones seal together and reach every peer. The
	// forged request is included — "wrong requests … have no further
	// effects" (§V) — and its receipt says the mark was rejected.
	cl := newCluster(t, 3, "alpha", "user")
	user := cl.keys["user"]
	seeded := cl.write(t, 0, cl.data("user", "keep me"), cl.data("user", "erase me"))
	keep, erase := seeded[0].Ref, seeded[1].Ref

	forged := block.NewDeletion("user", keep)
	forged.CoSigners = []block.CoSignature{{Name: "alpha", Signature: user.Sign(block.CoSigningBytes(keep))}}
	entries := []*block.Entry{
		cl.data("user", "valid"),
		block.NewData("user", []byte("unsigned")),
		block.NewData("user", []byte("wrong signer")).Sign(cl.keys["alpha"]),
		forged.Sign(user),
		block.NewDeletion("user", erase).Sign(user),
	}
	receipts, err := cl.nodes[0].Submit(context.Background(), entries...)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]mempool.Sealed, len(receipts))
	for i, r := range receipts {
		s, err := r.Wait(context.Background())
		if bad := i == 1 || i == 2; bad != (err != nil) {
			t.Fatalf("entry %d: receipt error %v, want an error: %v", i, err, bad)
		}
		results[i] = s
	}
	cl.net.Flush()
	sealedIn := results[0].Block
	for _, i := range []int{3, 4} {
		if results[i].Block != sealedIn {
			t.Errorf("entry %d sealed in block %d, the valid data in %d", i, results[i].Block, sealedIn)
		}
	}
	if results[3].Mark != mempool.MarkRejected {
		t.Errorf("forged co-signature: mark %v, want rejected", results[3].Mark)
	}
	if results[4].Mark != mempool.MarkApproved {
		t.Errorf("valid deletion: mark %v, want approved", results[4].Mark)
	}
	for _, n := range cl.nodes {
		if b, ok := n.Chain().Block(sealedIn); !ok || len(b.Entries) != 3 {
			t.Errorf("%s: block %d missing or not the three valid entries", n.Name(), sealedIn)
		}
		if n.Chain().IsMarked(keep) || !n.Chain().IsMarked(erase) {
			t.Errorf("%s: marks keep=%v erase=%v, want false/true", n.Name(), n.Chain().IsMarked(keep), n.Chain().IsMarked(erase))
		}
	}
}

func TestAppendEmpty(t *testing.T) {
	// The §IV-D.3 filler: sealed through the engine, appended by every
	// peer, stalled by an incomplete summary vote, refused after Close.
	pow := consensus.NewPoW(8)
	cl := newClusterWith(t, 3, func(_ int, cfg *Config) { cfg.Engine = pow })
	b := cl.fill(t, 0)
	if len(b.Entries) != 0 {
		t.Fatalf("filler holds %d entries", len(b.Entries))
	}
	if err := pow.VerifySeal(b); err != nil {
		t.Fatalf("filler not sealed by the engine: %v", err)
	}
	for _, n := range cl.nodes {
		if got, ok := n.Chain().Block(b.Header.Number); !ok || got.Hash() != b.Hash() {
			t.Errorf("%s did not append the filler", n.Name())
		}
	}

	// Alone, node 0 cannot complete a summary vote.
	nd := cl.nodes[0]
	cl.net.Partition([]string{nd.Name()})
	var err error
	for i := 0; i < 8 && err == nil; i++ {
		_, err = nd.AppendEmpty()
	}
	if !errors.Is(err, ErrSummaryPending) {
		t.Errorf("filler on a stalled summary: %v, want ErrSummaryPending", err)
	}

	if err := nd.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := nd.AppendEmpty(); !errors.Is(err, ErrClosed) {
		t.Errorf("filler after Close: %v, want ErrClosed", err)
	}
}

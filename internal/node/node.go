package node

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/seldel/seldel/internal/attack"
	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/codec"
	"github.com/seldel/seldel/internal/consensus"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/manifest"
	"github.com/seldel/seldel/internal/mempool"
	"github.com/seldel/seldel/internal/netsim"
	"github.com/seldel/seldel/internal/store"
	"github.com/seldel/seldel/internal/wire"
)

// Config assembles an anchor node.
type Config struct {
	// Key is the node's network identity; it must be registered in the
	// chain registry (the quorum's "master signature" role, §IV-D.1).
	Key *identity.KeyPair
	// Chain is the chain configuration. Every quorum member must use
	// identical parameters, or summaries diverge.
	Chain chain.Config
	// Engine seals and verifies normal blocks.
	Engine consensus.Engine
	// Quorum is the anchor-node set voting on marker shifts.
	Quorum *consensus.Quorum
	// Network connects the node to its peers.
	Network *netsim.Network
	// Store, when set, persists the node's chain. A populated store is
	// restored from at startup — starting at its snapshot checkpoint,
	// so only the live suffix is replayed — and an empty one is
	// mirrored from genesis. The store stays the caller's to close
	// (after Node.Close), like seldel.WithStore.
	Store store.Store
	// Byzantine fault-injects the node for the scenario suite; the
	// zero value is an honest node. See internal/attack.Behavior.
	Byzantine attack.Behavior
	// VoteRetryInterval makes the node self-driving on lossy networks:
	// while a due summary vote stays incomplete, the node re-announces
	// its vote every interval (each re-announcement triggers the peers'
	// repair answers) instead of waiting for the next write to announce
	// it. Zero disables the timer — deterministic drivers own time.
	VoteRetryInterval time.Duration
	// Logf, when set, receives the node's rare operator-facing log lines
	// (today: entering sync-offer suppression against a misbehaving
	// peer). Nil discards them.
	Logf func(format string, args ...any)
}

// ErrSummaryPending is returned while the quorum vote for the due
// summary block is still incomplete (e.g. votes were lost on a lossy
// network, or the node sits in a minority partition); the node
// re-announces its vote and the caller retries once the network
// settles.
var ErrSummaryPending = errors.New("node: summary vote pending")

// ErrClosed is returned by writes after Close. It wraps the pipeline's
// closed sentinel, so applications classify both with one errors.Is
// against the root façade's ErrClosed.
var ErrClosed = fmt.Errorf("node: %w", mempool.ErrClosed)

// summaryWait bounds how long a pipeline seal blocks waiting for a due
// summary vote to complete before reporting ErrSummaryPending. On an
// in-process network the vote settles in microseconds; the budget only
// matters under partitions and message loss, where failing fast (and
// letting the caller retry after re-announce) beats stalling the
// flusher.
const summaryWait = 25 * time.Millisecond

// voteState tracks the quorum votes for one pending summary block.
type voteState struct {
	counts    map[codec.Hash]int
	voted     map[string]codec.Hash // sender → hash it voted for
	localHash codec.Hash
	localSet  bool
	applied   bool
	// evidence keeps the raw signed vote envelopes seen per sender for
	// this round, keyed by claimed hash. Two entries for one sender are
	// proof of equivocation: both are relayable and independently
	// verifiable by any peer.
	evidence map[string]map[codec.Hash][]byte
	// relayed tracks which disagreeing (sender, hash) votes we already
	// forwarded as evidence, so relay-on-disagreement sends each at most
	// once.
	relayed map[string]map[codec.Hash]bool
}

// offerRejectLimit is how many consecutive resurrection-rejected catch-up
// offers a peer may send before the node stops reading its offers
// entirely (satellite defense against forged-snapshot spam). The counter
// resets when the node itself asks that peer for data again.
const offerRejectLimit = 3

// SyncStats counts the node's catch-up traffic: snapshot offers by
// outcome, chunk flow in both directions, and the high-water mark of
// blocks staged in the receive path (which the chunked protocol keeps
// bounded regardless of chain length).
type SyncStats struct {
	// OffersStarted..OffersIgnored count received snapshot offers:
	// accepted-and-streaming, adopted, failed mid-stream, rejected by the
	// resurrection floor, dropped before decode because the sender is in
	// rejection backoff, and dropped because another offer was already
	// streaming.
	OffersStarted    uint64
	OffersCompleted  uint64
	OffersAborted    uint64
	OffersRejected   uint64
	OffersSuppressed uint64
	OffersIgnored    uint64
	// ChunksSent and ChunksReceived count snapshot chunks on the wire.
	ChunksSent     uint64
	ChunksReceived uint64
	// PeakStagedBlocks is the most blocks that ever sat decoded in the
	// receive path awaiting restore-pipeline registration.
	PeakStagedBlocks int64
}

// Node is one anchor node.
type Node struct {
	mu       sync.Mutex
	name     string
	key      *identity.KeyPair
	chain    *chain.Chain // guarded by mu for the rare status-quo adoption swap
	chainCfg chain.Config // engine-wired config, reused by adoptSnapshot
	engine   consensus.Engine
	quorum   *consensus.Quorum
	ep       *netsim.Endpoint
	store    store.Store
	prop     *mempool.Batcher // proposal pipeline; its sealer is proposer
	// sealMu serializes block proposals: the pipeline flusher and
	// AppendEmpty both seal through it, so they never race each other
	// for the head slot.
	sealMu    sync.Mutex
	tallies   map[uint64]*voteState
	forked    bool
	byzantine attack.Behavior
	closed    bool
	storeErr  error // persistence failure during snapshot adoption

	logf func(format string, args ...any)

	// equivocators holds quorum members this node has proof (two
	// conflicting signed votes for one round) deviated from the
	// single-proposal rule. Their votes and catch-up offers are ignored
	// and any already-counted votes were retracted. Guarded by mu.
	equivocators map[string]bool

	// voteRetry/retryTimer implement Config.VoteRetryInterval; the timer
	// is armed while a summary vote is pending and guarded by mu.
	voteRetry  time.Duration
	retryTimer *time.Timer

	// quit is closed by Close; the snapshot-session restore consumer
	// selects on it so an offer in flight at shutdown unwinds instead of
	// leaking its goroutine.
	quit chan struct{}

	// Snapshot catch-up state. sess is the single active inbound offer
	// session; it is owned by the endpoint's delivery goroutine (all
	// chunks arrive there), so it needs no lock. offerRejects /
	// offerSuppressed track consecutive resurrection-rejected offers per
	// peer (guarded by mu). snapOfferSeq numbers outgoing offers.
	sess           *snapSession
	offerRejects   map[string]int
	suppressedLog  map[string]bool
	snapOfferSeq   uint64 // guarded by mu
	frozenOffer    []wire.SnapshotPayload
	frozenOfferSet bool // guarded by mu with frozenOffer

	// staged/stagedPeak gauge blocks decoded in the receive path but not
	// yet consumed by the restore pipeline (atomics; see SyncStats).
	staged     atomic.Int64
	stagedPeak atomic.Int64
	// stats counters below are guarded by mu.
	stats SyncStats
}

// snapSession is one inbound snapshot offer being streamed into the
// restore pipeline. The delivery goroutine feeds decoded blocks through
// feed; a dedicated consumer goroutine runs chain.RestoreStream and
// deposits the outcome in res (buffered, so it can always exit).
type snapSession struct {
	sender  string
	offerID uint64
	last    wire.SnapshotPayload // last accepted chunk's header (no blocks)
	feed    chan snapFeedItem
	res     chan snapResult
	// dead is closed when the consumer goroutine stops reading (restore
	// finished or failed); feed pushes select on it so an abort can never
	// wedge the delivery goroutine against a full channel.
	dead chan struct{}
}

type snapFeedItem struct {
	b   *block.Block
	err error
}

type snapResult struct {
	c   *chain.Chain
	err error
}

// New creates an anchor node and joins it to the network. With a
// populated Config.Store the chain is restored from the store's
// snapshot checkpoint (the restart path); otherwise a fresh genesis is
// created.
func New(cfg Config) (*Node, error) {
	if cfg.Key == nil {
		return nil, errors.New("node: missing key")
	}
	if !cfg.Byzantine.Valid() {
		return nil, fmt.Errorf("node: unknown byzantine behaviour %d", cfg.Byzantine)
	}
	if cfg.Engine == nil {
		cfg.Engine = consensus.NoOp{}
	}
	if cfg.Quorum == nil {
		q, err := consensus.NewQuorum([]string{cfg.Key.Name()})
		if err != nil {
			return nil, err
		}
		cfg.Quorum = q
	}
	chainCfg := cfg.Chain
	consensus.Configure(&chainCfg, cfg.Engine)
	c, err := openChain(chainCfg, cfg.Store)
	if err != nil {
		return nil, err
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	n := &Node{
		name:          cfg.Key.Name(),
		key:           cfg.Key,
		chain:         c,
		chainCfg:      chainCfg,
		engine:        cfg.Engine,
		quorum:        cfg.Quorum,
		store:         cfg.Store,
		tallies:       make(map[uint64]*voteState),
		byzantine:     cfg.Byzantine,
		voteRetry:     cfg.VoteRetryInterval,
		logf:          logf,
		equivocators:  make(map[string]bool),
		offerRejects:  make(map[string]int),
		suppressedLog: make(map[string]bool),
		quit:          make(chan struct{}),
	}
	n.prop = mempool.NewBatcher(proposer{n}, mempool.Options{
		Warm: n.warmEntries,
		// A sealed batch resolves with the store-failure latch, like a
		// chain's own pipeline: its block went through the store
		// listeners before Seal returned, so a failed write is visible.
		Durable: func(resolve func(error)) { resolve(n.StoreErr()) },
	})
	if cfg.Network != nil {
		ep, err := cfg.Network.Join(n.name, n.handle)
		if err != nil {
			n.prop.Close()
			c.Close()
			return nil, err
		}
		n.ep = ep
	}
	return n, nil
}

// openChain builds the node's chain: on the store when there is one
// (restored from its snapshot checkpoint, or mirrored into it from
// genesis), stand-alone without one.
func openChain(cfg chain.Config, s store.Store) (*chain.Chain, error) {
	if s == nil {
		return chain.New(cfg)
	}
	return store.Open(cfg, s)
}

// Close detaches the node from the network, drains its proposal
// pipeline, and closes the chain. The store (if any) stays open for
// the caller — a restarted node reopens it via Config.Store.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	if n.retryTimer != nil {
		n.retryTimer.Stop()
		n.retryTimer = nil
	}
	n.mu.Unlock()
	close(n.quit)
	// Drain the proposal pipeline while still on the network: queued
	// submissions may land on a due summary slot, and completing that
	// vote needs the peers' answers to still reach us. Only then leave.
	err := n.prop.Close()
	if n.ep != nil {
		n.ep.Leave()
	}
	// Leave stops new deliveries but the endpoint's goroutine may still
	// be draining queued messages — including a snapshot adoption that
	// swaps n.chain. sealMu serializes with that adoption (which checks
	// closed and aborts once we hold it), so exactly one chain survives
	// to be closed here and none leaks.
	n.sealMu.Lock()
	cerr := n.Chain().Close()
	n.sealMu.Unlock()
	if err == nil {
		err = cerr
	}
	return err
}

// Name returns the node's identity name.
func (n *Node) Name() string { return n.name }

// Chain exposes the node's chain (read-mostly; concurrent-safe). The
// pointer may change when the node adopts a new status quo after falling
// behind the quorum's Genesis marker.
func (n *Node) Chain() *chain.Chain {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.chain
}

// Stats snapshots the current chain's size and deletion counters — the
// read surface a serving front-end exposes without reaching through
// Chain() (which may be swapped by a status-quo adoption mid-call).
func (n *Node) Stats() chain.Stats { return n.Chain().Stats() }

// EntriesSeq streams the current chain's live entries with their stable
// references. The snapshot is taken when iteration starts; a concurrent
// status-quo adoption affects later calls, not a stream in progress.
func (n *Node) EntriesSeq() iter.Seq2[block.Ref, *block.Entry] {
	return n.Chain().EntriesSeq()
}

// EntriesAfter is the current chain's ordered seek; see
// chain.Chain.EntriesAfter. Each call reads the chain current at that
// moment, so a scan that spans a status-quo adoption continues on the
// adopted chain with the same cursor (refs are chain-independent).
func (n *Node) EntriesAfter(after block.Ref, haveCursor bool, limit int, skipMarked bool) []chain.RefEntry {
	return n.Chain().EntriesAfter(after, haveCursor, limit, skipMarked)
}

// Tombstones returns the current chain's deletion audit records, oldest
// first, waiting out pending compactions like chain.Chain.Tombstones.
func (n *Node) Tombstones(ctx context.Context) ([]manifest.Record, error) {
	return n.Chain().Tombstones(ctx)
}

// ProveDeleted builds the deletion proof for ref against the current
// chain's tombstone layer.
func (n *Node) ProveDeleted(ref block.Ref) (*chain.DeletedProof, error) {
	return n.Chain().ProveDeleted(ref)
}

// Forked reports whether the node detected divergence from the quorum.
func (n *Node) Forked() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.forked
}

// Equivocators returns the quorum members this node holds equivocation
// proof against (two conflicting signed votes for one round), sorted.
func (n *Node) Equivocators() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.equivocators))
	for name := range n.equivocators {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// SyncStats snapshots the node's catch-up counters.
func (n *Node) SyncStats() SyncStats {
	n.mu.Lock()
	s := n.stats
	n.mu.Unlock()
	s.PeakStagedBlocks = n.stagedPeak.Load()
	return s
}

// handle dispatches incoming network messages. It runs on the endpoint's
// delivery goroutine.
func (n *Node) handle(msg netsim.Message) {
	env, err := wire.OpenEnvelope(n.Chain().Registry(), msg.Payload)
	if err != nil {
		return // unauthenticated message: drop
	}
	switch env.Kind {
	case wire.KindBlock:
		n.handleBlock(env)
	case wire.KindVote:
		n.handleVote(env)
	case wire.KindVoteEvidence:
		n.handleVoteEvidence(env)
	case wire.KindStatusReq:
		n.handleStatusReq(env)
	case wire.KindLookupReq:
		n.handleLookupReq(env)
	case wire.KindSyncReq:
		n.handleSyncReq(env)
	case wire.KindSyncResp:
		n.handleSyncResp(env)
	case wire.KindSnapshotResp:
		n.handleSnapshotResp(env)
	}
}

// warmEntries pre-verifies a submitted group while its batch is still
// assembling: entry signatures and deletion co-signatures populate the
// verified-signature cache, so the sealing flush re-checks them for
// cache hits instead of Ed25519 cost.
func (n *Node) warmEntries(entries []*block.Entry) <-chan struct{} {
	c := n.Chain()
	return c.Verifier().Warm(c.Registry(), entries)
}

// proposer adapts the node's proposal path to the batching pipeline's
// Ledger interface: sealed batches become proposed blocks.
type proposer struct{ n *Node }

// Seal implements mempool.Ledger. After a store failure nothing more is
// sealed: the pipeline then asks ValidateEntries which entries to
// reject, and that answers with the same error for every one.
func (p proposer) Seal(entries []*block.Entry) ([]*block.Block, []mempool.MarkOutcome, error) {
	if err := p.n.StoreErr(); err != nil {
		return nil, nil, err
	}
	return p.n.sealProposal(entries)
}

// ValidateEntries implements mempool.Ledger.
func (p proposer) ValidateEntries(entries []*block.Entry) error {
	if err := p.n.StoreErr(); err != nil {
		return err
	}
	return p.n.Chain().ValidateEntries(entries)
}

// sealProposal is the node's single sealing path: build a normal block
// from the batch, seal it with the consensus engine, append it, gossip
// it, and kick the summary vote when the next slot is a summary slot.
// When that next slot is ALREADY a summary slot, the proposal must wait
// for the quorum vote to land the summary first; if the vote does not
// complete within the budget (lost votes, minority partition), the
// batch fails with ErrSummaryPending and the pipeline's retry/receipt
// machinery reports it to the callers.
func (n *Node) sealProposal(entries []*block.Entry) ([]*block.Block, []mempool.MarkOutcome, error) {
	n.sealMu.Lock()
	defer n.sealMu.Unlock()
	c := n.Chain()
	if c.NextIsSummary() {
		if !n.waitSummaryApplied(c) {
			return nil, nil, ErrSummaryPending
		}
		c = n.Chain()
	}
	b, err := c.BuildNormal(entries)
	if err != nil {
		return nil, nil, err
	}
	if err := n.engine.Seal(b); err != nil {
		return nil, nil, fmt.Errorf("node: seal: %w", err)
	}
	outcomes, err := c.AppendBlockOutcomes(b)
	if err != nil {
		return nil, nil, err
	}
	if n.ep != nil {
		n.ep.Broadcast(wire.KindBlock, wire.SealEnvelope(n.key, wire.KindBlock, b.Encode()))
	}
	n.afterAppend()
	return []*block.Block{b}, outcomes, nil
}

// waitSummaryApplied announces our vote for the due summary block and
// polls briefly for the quorum decision to apply it. It reports whether
// the summary landed (votes are applied by the network delivery
// goroutines, so polling — not re-entering the tally — is correct
// here).
func (n *Node) waitSummaryApplied(c *chain.Chain) bool {
	n.announceSummary(c)
	deadline := time.Now().Add(summaryWait)
	for c.NextIsSummary() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

// Submit enqueues entries into the node's proposal pipeline and returns
// one Receipt per entry: the node's one write path. Entries from
// many goroutines coalesce into proposed blocks exactly like a
// single-process chain's Submit; each receipt resolves to the entry's
// stable Ref (and deletion-mark outcome) once its block is sealed and
// gossiped. Entries reach the peers inside the sealed block — a
// receipt therefore implies the entry is on the node's chain and on the
// wire to every reachable peer.
func (n *Node) Submit(ctx context.Context, entries ...*block.Entry) ([]mempool.Receipt, error) {
	n.mu.Lock()
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	return n.prop.Submit(ctx, entries...)
}

// SubmitWait submits entries and blocks until every receipt resolves,
// failing fast on the first per-entry error.
func (n *Node) SubmitWait(ctx context.Context, entries ...*block.Entry) ([]mempool.Sealed, error) {
	receipts, err := n.Submit(ctx, entries...)
	if err != nil {
		return nil, err
	}
	out := make([]mempool.Sealed, len(receipts))
	for i, r := range receipts {
		s, err := r.Wait(ctx)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// PipelineStats returns the node's proposal-pipeline counters (sealed
// batches, receipts, backpressure) merged with the chain's
// verification, compaction, and index gauges.
func (n *Node) PipelineStats() mempool.Stats {
	s := n.prop.Stats()
	cs := n.Chain().PipelineStats()
	s.Verify = cs.Verify
	s.Compaction = cs.Compaction
	s.Index = cs.Index
	return s
}

// AppendEmpty seals an empty normal block through the proposal path:
// the filler block "regularly added … if no transaction has occurred"
// so pending deletions execute (§IV-D.3), named like
// chain.Chain.AppendEmpty. Like a write, it waits briefly for a due
// summary vote and fails with ErrSummaryPending while that vote stays
// incomplete.
func (n *Node) AppendEmpty() (*block.Block, error) {
	n.mu.Lock()
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	blocks, _, err := n.sealProposal(nil)
	if err != nil {
		return nil, err
	}
	return blocks[0], nil
}

func (n *Node) handleBlock(env wire.Envelope) {
	b, err := block.DecodeBlock(env.Body)
	if err != nil {
		return
	}
	c := n.Chain()
	if err := c.AppendBlock(b); err != nil {
		// A gap means we fell behind (e.g. a healed partition): ask the
		// sender for the missing suffix (§V-B.4 recovery via anchors).
		if errors.Is(err, chain.ErrNotNext) && b.Header.Number > c.Head().Number+1 {
			n.requestSync(env.Sender)
		}
		// Otherwise: stale or conflicting block. A summary mismatch means
		// WE may be the forked party only if the majority agrees with the
		// sender; that is decided by the vote, not here.
		return
	}
	n.afterAppend()
}

// requestSync asks peer for everything after our head. Asking is a
// deliberate act, so it lifts any offer-rejection backoff against that
// peer: the answer we just solicited will be read.
func (n *Node) requestSync(peer string) {
	if n.ep == nil {
		return
	}
	n.mu.Lock()
	delete(n.offerRejects, peer)
	delete(n.suppressedLog, peer)
	n.mu.Unlock()
	body := wire.EncodeSyncReq(wire.SyncReqPayload{HeadNumber: n.Chain().Head().Number})
	_ = n.ep.Send(peer, wire.KindSyncReq, wire.SealEnvelope(n.key, wire.KindSyncReq, body))
}

// offerGate applies the per-peer offer backoff: once a peer has had
// offerRejectLimit consecutive offers rejected by the resurrection
// floor, further unsolicited offers are dropped before decoding (logged
// once per suppression episode). Returns false when the offer must be
// ignored.
func (n *Node) offerGate(peer string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.equivocators[peer] {
		n.stats.OffersSuppressed++
		return false
	}
	if n.offerRejects[peer] < offerRejectLimit {
		return true
	}
	n.stats.OffersSuppressed++
	if !n.suppressedLog[peer] {
		n.suppressedLog[peer] = true
		n.logf("node %s: suppressing catch-up offers from %s after %d resurrection-rejected offers", n.name, peer, n.offerRejects[peer])
	}
	return false
}

// noteOfferRejected records a resurrection-floor rejection of an offer
// from peer; noteOfferAccepted clears the strike counter.
func (n *Node) noteOfferRejected(peer string) {
	n.mu.Lock()
	n.offerRejects[peer]++
	n.stats.OffersRejected++
	n.mu.Unlock()
}

func (n *Node) noteOfferAccepted(peer string) {
	n.mu.Lock()
	delete(n.offerRejects, peer)
	delete(n.suppressedLog, peer)
	n.mu.Unlock()
}

// handleSyncReq serves catch-up data. A requester still inside our live
// window gets the incremental suffix it can append directly; one whose
// continuation point was already truncated away gets the
// snapshot-anchored status quo instead — marker, head, and the live
// blocks — which it adopts wholesale (the marker block "is a trusted
// anchor … already approved by the anchor nodes", §IV-C).
func (n *Node) handleSyncReq(env wire.Envelope) {
	if n.ep == nil {
		return
	}
	req, err := wire.DecodeSyncReq(env.Body)
	if err != nil {
		return
	}
	c := n.Chain()
	from := req.HeadNumber + 1
	if from < c.Marker() {
		n.sendSnapshot(env.Sender, c)
		return
	}
	resp := wire.SyncRespPayload{}
	if head, ok := c.TombstoneHead(); ok {
		resp.ManifestSeq = head.Seq
		resp.ManifestMarker = head.NewMarker
	}
	for b := range c.BlocksSeq() {
		if b.Header.Number < from {
			continue
		}
		// Incremental catch-up may be partial: the requester appends
		// what fits under the wire bound, and the gap its next gossip
		// reveals triggers another sync round for the rest.
		if len(resp.Blocks) == wire.MaxSyncBlocks {
			break
		}
		resp.Blocks = append(resp.Blocks, b.Encode())
	}
	if len(resp.Blocks) == 0 {
		return
	}
	_ = n.ep.Send(env.Sender, wire.KindSyncResp,
		wire.SealEnvelope(n.key, wire.KindSyncResp, wire.EncodeSyncResp(resp)))
}

// snapChunkBlocks is the sender-side chunk size. It defaults to the wire
// maximum; tests shrink it (same package) to exercise multi-chunk offers
// without sealing hundreds of blocks first. Receivers accept any chunk
// up to the wire bound, so the two sides need not agree.
var snapChunkBlocks = wire.MaxSnapshotChunkBlocks

// sendSnapshot streams our snapshot-anchored live chain to peer as a
// sequence of bounded chunks sharing one offer ID. The offer's marker
// and head are taken from the streamed blocks themselves, so the stream
// is internally consistent even if a truncation lands concurrently. At
// no point does the whole live window sit encoded in memory — the send
// buffer holds at most one chunk.
//
// A ForgedSnapshot node serves the first offer it ever built, forever:
// the replayed chunks are re-signed fresh (the forger IS a quorum
// member; its signatures are genuine) but anchor at a marker the quorum
// has long moved past — the receiver's resurrection floor is what must
// catch that.
func (n *Node) sendSnapshot(peer string, c *chain.Chain) {
	n.mu.Lock()
	n.snapOfferSeq++
	offerID := n.snapOfferSeq
	frozen := n.frozenOfferSet
	replay := append([]wire.SnapshotPayload(nil), n.frozenOffer...)
	n.mu.Unlock()

	if n.byzantine.ReplaysStaleSnapshot() && frozen {
		for _, p := range replay {
			p.OfferID = offerID
			n.sendSnapshotChunk(peer, p)
		}
		return
	}

	var sent []wire.SnapshotPayload
	base := wire.SnapshotPayload{OfferID: offerID}
	if head, ok := c.TombstoneHead(); ok {
		base.ManifestSeq = head.Seq
		base.ManifestMarker = head.NewMarker
	}
	chunk := base
	idx := uint32(0)
	flush := func(last bool) {
		chunk.Chunk = idx
		chunk.Last = last
		n.sendSnapshotChunk(peer, chunk)
		sent = append(sent, chunk)
		idx++
		next := base
		next.Marker = chunk.Head + 1
		chunk = next
	}
	for b := range c.BlocksSeq() {
		if len(chunk.Blocks) >= snapChunkBlocks {
			flush(false)
		}
		if len(chunk.Blocks) == 0 {
			chunk.Marker = b.Header.Number
		}
		chunk.Head = b.Header.Number
		chunk.Blocks = append(chunk.Blocks, b.Encode())
	}
	if len(chunk.Blocks) == 0 {
		return
	}
	flush(true)

	if n.byzantine.ReplaysStaleSnapshot() {
		n.mu.Lock()
		if !n.frozenOfferSet {
			n.frozenOffer = sent
			n.frozenOfferSet = true
		}
		n.mu.Unlock()
	}
}

func (n *Node) sendSnapshotChunk(peer string, p wire.SnapshotPayload) {
	_ = n.ep.Send(peer, wire.KindSnapshotResp,
		wire.SealEnvelope(n.key, wire.KindSnapshotResp, wire.EncodeSnapshot(p)))
	n.mu.Lock()
	n.stats.ChunksSent++
	n.mu.Unlock()
}

func (n *Node) handleSyncResp(env wire.Envelope) {
	// Only quorum members are trusted for catch-up data, and peers in
	// offer-rejection backoff are not read at all.
	if !n.quorum.Contains(env.Sender) || !n.offerGate(env.Sender) {
		return
	}
	resp, err := wire.DecodeSyncResp(env.Body)
	if err != nil || len(resp.Blocks) == 0 {
		return
	}
	c := n.Chain()
	// Resurrection guard: our own deletion manifest is authoritative.
	// Any offered block below the highest marker we recorded a deletion
	// for would re-introduce data the quorum erased — drop the whole
	// offer, whatever manifest head the sender claims, and give the
	// sender a strike toward offer suppression.
	floor := c.ResurrectionFloor()
	appended := false
	for _, raw := range resp.Blocks {
		b, err := block.DecodeBlock(raw)
		if err != nil {
			return
		}
		if b.Header.Number < floor {
			n.noteOfferRejected(env.Sender)
			return
		}
		if err := c.AppendBlock(b); err != nil {
			return // stale or diverged; a later gossip round retries
		}
		appended = true
	}
	if appended {
		n.noteOfferAccepted(env.Sender)
	}
	n.afterAppend()
}

// handleSnapshotResp streams a quorum peer's chunked snapshot offer into
// the chain restore. Chunk 0 opens a session — after the
// resurrection-floor check on the offered marker — and starts a consumer
// goroutine running chain.RestoreStream on a channel-fed block sequence;
// every in-order chunk decodes its blocks and feeds them through. Memory
// stays bounded by one chunk, not by the offered chain's length. These
// are a peer's bytes: RestoreStream verifies every owner signature,
// which a node reopening its own store (store.Open) does not. The final
// chunk closes the feed, and the restored chain is adopted
// (adoptRestored) only when it is integrity-clean and strictly ahead of
// the local head. Out-of-order, cross-offer, or non-contiguous chunks
// abort the session.
func (n *Node) handleSnapshotResp(env wire.Envelope) {
	if !n.quorum.Contains(env.Sender) || !n.offerGate(env.Sender) {
		return
	}
	p, err := wire.DecodeSnapshot(env.Body)
	if err != nil {
		return
	}
	n.mu.Lock()
	n.stats.ChunksReceived++
	n.mu.Unlock()
	sess := n.sess
	if p.Chunk == 0 {
		if sess != nil {
			if sess.sender == env.Sender {
				// The peer restarted its offer (e.g. after a crash):
				// drop the stale session and start over.
				n.abortSession(sess)
			} else {
				// One inbound offer at a time bounds restore work and
				// staging memory; competing offers retry via later
				// sync rounds.
				n.mu.Lock()
				n.stats.OffersIgnored++
				n.mu.Unlock()
				return
			}
		}
		// Resurrection guard: a snapshot anchored below our own recorded
		// deletion floor would hand back blocks this node witnessed the
		// quorum delete (e.g. a stale or malicious peer replaying an old
		// status quo). The floor outlives the blocks themselves — it is
		// re-seeded from the store's DELETIONS log on restart — so the
		// check holds even when the local chain was rebuilt from scratch.
		if p.Marker < n.Chain().ResurrectionFloor() {
			n.noteOfferRejected(env.Sender)
			return
		}
		sess = n.startSession(env.Sender, p.OfferID)
		n.mu.Lock()
		n.stats.OffersStarted++
		n.mu.Unlock()
	} else {
		if sess == nil || sess.sender != env.Sender {
			return // no session (or someone else's): drop the straggler
		}
		if err := wire.SnapshotChunkFollows(sess.last, p); err != nil {
			n.abortSession(sess) // gap, replay, or cross-offer interleave
			return
		}
	}
	// Feed the chunk's blocks to the restore consumer in order.
	for _, raw := range p.Blocks {
		b, derr := block.DecodeBlock(raw)
		if derr != nil {
			n.abortSession(sess)
			return
		}
		if !n.feedSession(sess, snapFeedItem{b: b}) {
			n.abortSession(sess)
			return
		}
	}
	sess.last = p
	sess.last.Blocks = nil
	if !p.Last {
		return
	}
	// Offer complete: close the feed, collect the restored chain.
	n.sess = nil
	close(sess.feed)
	r := <-sess.res
	if r.err != nil || r.c == nil {
		n.mu.Lock()
		n.stats.OffersAborted++
		n.mu.Unlock()
		return
	}
	if n.adoptRestored(r.c) {
		n.noteOfferAccepted(env.Sender)
		n.mu.Lock()
		n.stats.OffersCompleted++
		n.mu.Unlock()
		// The adopted chain may sit exactly on a summary boundary; the
		// adopter must join that vote like any appender would, or a
		// cluster with many freshly adopted nodes can starve the
		// threshold (seen in the crash-restart-storm drill).
		n.afterAppend()
	} else {
		n.mu.Lock()
		n.stats.OffersAborted++
		n.mu.Unlock()
	}
}

// startSession opens an inbound offer session and its restore consumer.
// The feed holds up to one full wire-max chunk so the delivery goroutine
// never blocks between chunks of a well-paced offer; the staged gauge
// tracks blocks parked in it.
func (n *Node) startSession(sender string, offerID uint64) *snapSession {
	sess := &snapSession{
		sender:  sender,
		offerID: offerID,
		feed:    make(chan snapFeedItem, wire.MaxSnapshotChunkBlocks),
		res:     make(chan snapResult, 1),
		dead:    make(chan struct{}),
	}
	n.sess = sess
	go func() {
		c, err := chain.RestoreStream(n.chainCfg, func(yield func(*block.Block, error) bool) {
			for {
				select {
				case it, ok := <-sess.feed:
					if !ok {
						return
					}
					n.staged.Add(-1)
					if !yield(it.b, it.err) || it.err != nil {
						return
					}
				case <-n.quit:
					yield(nil, errors.New("node: closed during snapshot restore"))
					return
				}
			}
		})
		close(sess.dead)
		if err == nil && c != nil {
			if verr := c.VerifyIntegrity(); verr != nil {
				c.Close()
				c, err = nil, verr
			}
		}
		sess.res <- snapResult{c: c, err: err}
	}()
	return sess
}

// feedSession hands one item to the session's consumer, maintaining the
// staged-blocks gauge. It returns false when the consumer is gone
// (restore already failed), so the caller aborts instead of wedging.
func (n *Node) feedSession(sess *snapSession, it snapFeedItem) bool {
	staged := n.staged.Add(1)
	for {
		peak := n.stagedPeak.Load()
		if staged <= peak || n.stagedPeak.CompareAndSwap(peak, staged) {
			break
		}
	}
	select {
	case sess.feed <- it:
		return true
	case <-sess.dead:
		n.staged.Add(-1)
		return false
	}
}

// abortSession tears down the active inbound offer: the feed is closed,
// the consumer's outcome is drained (closing any chain it built), and
// the staged gauge sheds whatever was still parked.
func (n *Node) abortSession(sess *snapSession) {
	if n.sess == sess {
		n.sess = nil
	}
	close(sess.feed)
	r := <-sess.res
	if r.c != nil {
		r.c.Close()
	}
	// Whatever the consumer never drained is no longer staged.
	for range sess.feed {
		n.staged.Add(-1)
	}
	n.mu.Lock()
	n.stats.OffersAborted++
	n.mu.Unlock()
}

// adoptRestored swaps the node onto a fully restored, integrity-checked
// chain when it is strictly ahead of the local head, re-pointing the
// local store at it — the old suffix below the new marker is physically
// deleted, exactly as if this node had executed the quorum's
// truncations itself. Returns whether the adoption happened; a rejected
// chain is closed here.
func (n *Node) adoptRestored(restored *chain.Chain) bool {
	// sealMu excludes the proposal pipeline for the whole adoption:
	// gossip and vote appends run on this same delivery goroutine, so
	// with the flusher held off, nothing can append to either chain
	// until the store is re-pointed — the persisted suffix can have no
	// gap between Attach's backfill and its listener registration.
	n.sealMu.Lock()
	defer n.sealMu.Unlock()
	n.mu.Lock()
	if n.closed || restored.Head().Number <= n.chain.Head().Number || restored.Marker() < n.chain.Marker() {
		n.mu.Unlock()
		restored.Close()
		return false
	}
	old := n.chain
	n.chain = restored
	n.tallies = make(map[uint64]*voteState)
	n.forked = false
	n.mu.Unlock()
	// Drain the old chain first (its compactor may still prune the
	// store with pre-adoption markers; the segment store rejects those
	// backwards marker moves), then re-point the store at the adopted
	// chain: Attach backfills the new live suffix and deletes
	// everything below the new marker.
	old.Close()
	if n.store != nil {
		if err := store.Attach(restored, n.store); err != nil {
			// The node keeps serving from memory, but persistence is
			// broken: surface it instead of silently restoring a
			// pre-adoption (quorum-deleted) suffix on the next restart.
			n.mu.Lock()
			n.storeErr = err
			n.mu.Unlock()
		}
	}
	return true
}

// StoreErr reports a persistence failure the node could not surface
// through a return value: a failed store re-point during snapshot
// adoption, or a block or prune of the current chain that did not reach
// the store (chain.ErrStore). A non-nil value means the store must not
// be trusted for a restart.
func (n *Node) StoreErr() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.storeErr != nil {
		return n.storeErr
	}
	return n.chain.StoreErr()
}

// afterAppend starts the summary-vote round if a summary slot is due.
func (n *Node) afterAppend() {
	c := n.Chain()
	if !c.NextIsSummary() {
		return
	}
	n.announceSummary(c)
}

// announceSummary computes the due summary block locally (§IV-B: every
// node builds Σ itself), records it as our position for the vote round,
// and emits the vote traffic the node's behaviour plans: an honest node
// broadcasts its vote, a withholder stays silent, an equivocator tells
// each half of the quorum a different hash (attack.PlanSummaryVotes).
// Safe to call repeatedly — re-announcement is the repair protocol for
// lost votes. With Config.VoteRetryInterval set, a retry timer re-runs
// this until the vote lands.
func (n *Node) announceSummary(c *chain.Chain) {
	local, err := c.BuildSummary()
	if err != nil {
		return
	}
	num := local.Header.Number
	marker := c.Marker() // marker before the shift; vote carries it for audit
	vote := wire.VotePayload{Number: num, Hash: local.Hash(), Marker: marker, Approve: true}

	n.mu.Lock()
	st := n.talliesFor(num)
	st.localHash = local.Hash()
	st.localSet = true
	n.mu.Unlock()

	peers := make([]string, 0, n.quorum.Size()-1)
	for _, m := range n.quorum.Members() {
		if m != n.name {
			peers = append(peers, m)
		}
	}
	sends, countSelf := attack.PlanSummaryVotes(n.byzantine, peers, vote)
	if n.ep != nil {
		for _, s := range sends {
			sealed := wire.SealEnvelope(n.key, wire.KindVote, wire.EncodeVote(s.Payload))
			if s.Peer == "" {
				n.ep.Broadcast(wire.KindVote, sealed)
			} else {
				_ = n.ep.Send(s.Peer, wire.KindVote, sealed)
			}
		}
	}
	if countSelf {
		n.recordVote(n.name, vote)
	} else {
		// Votes may already have arrived before our position was set;
		// re-evaluate the tally without announcing anything.
		n.maybeApplySummary(num)
	}
	if c.NextIsSummary() {
		n.armVoteRetry()
	}
}

// armVoteRetry schedules a vote re-announcement if self-driving retries
// are configured and none is already pending. The timer is one-shot and
// re-arms from its own firing while the summary stays pending, so a
// settled vote leaves no timer behind.
func (n *Node) armVoteRetry() {
	if n.voteRetry <= 0 || n.ep == nil {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed || n.retryTimer != nil {
		return
	}
	n.retryTimer = time.AfterFunc(n.voteRetry, n.voteRetryFire)
}

func (n *Node) voteRetryFire() {
	n.mu.Lock()
	n.retryTimer = nil
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return
	}
	c := n.Chain()
	if !c.NextIsSummary() {
		return
	}
	n.announceSummary(c) // re-arms while still pending
}

func (n *Node) talliesFor(num uint64) *voteState {
	st, ok := n.tallies[num]
	if !ok {
		st = &voteState{
			counts:   make(map[codec.Hash]int),
			voted:    make(map[string]codec.Hash),
			evidence: make(map[string]map[codec.Hash][]byte),
			relayed:  make(map[string]map[codec.Hash]bool),
		}
		n.tallies[num] = st
	}
	return st
}

func (n *Node) handleVote(env wire.Envelope) {
	v, err := wire.DecodeVote(env.Body)
	if err != nil || !v.Approve {
		return
	}
	if !n.quorum.Contains(env.Sender) {
		return
	}
	if n.observeVote(env, v) {
		return // flagged equivocator (previously or just now): not counted
	}
	n.recordVote(env.Sender, v)
	// A vote for a round beyond our head means we missed blocks: sync.
	if v.Number > n.Chain().Head().Number+1 {
		n.requestSync(env.Sender)
		return
	}
	// Answer announcements (never answers): repairs lost votes. Repair
	// votes themselves are counted above but not answered, so the repair
	// protocol cannot loop. A vote-withholding member never answers.
	if !v.Repair && n.byzantine != attack.VoteWithholding {
		n.answerVote(env.Sender, v.Number)
	}
}

// handleVoteEvidence ingests a relayed third-party vote: the body is the
// relayed sender's original signed envelope, verified against the same
// registry, so a relayer cannot fabricate votes — only repeat them. The
// inner vote flows through the same observation and tally path as a
// direct one (without triggering answers or further relays of relays),
// which is how conflicting votes shown to different halves of the quorum
// end up side by side at every member.
func (n *Node) handleVoteEvidence(env wire.Envelope) {
	inner, err := wire.OpenEnvelope(n.Chain().Registry(), env.Body)
	if err != nil || inner.Kind != wire.KindVote {
		return
	}
	v, err := wire.DecodeVote(inner.Body)
	if err != nil || !v.Approve {
		return
	}
	if !n.quorum.Contains(inner.Sender) || inner.Sender == n.name {
		return
	}
	if n.observeVote(inner, v) {
		return
	}
	n.recordVote(inner.Sender, v)
}

// observeVote is the equivocation screen on every counted vote. It
// archives the signed envelope as evidence for (round, sender, hash),
// flags the sender once two conflicting hashes are on file (retracting
// its counted vote and broadcasting both proofs), and relays any vote
// that disagrees with our own locally built summary so the rest of the
// quorum sees what we were told. Returns true when the vote must not be
// counted (sender already flagged, or flagged by this very vote).
func (n *Node) observeVote(env wire.Envelope, v wire.VotePayload) bool {
	n.mu.Lock()
	if n.equivocators[env.Sender] {
		n.mu.Unlock()
		return true
	}
	if env.Sender == n.name {
		n.mu.Unlock()
		return false
	}
	st := n.talliesFor(v.Number)
	byHash := st.evidence[env.Sender]
	if byHash == nil {
		byHash = make(map[codec.Hash][]byte)
		st.evidence[env.Sender] = byHash
	}
	if _, ok := byHash[v.Hash]; !ok && len(byHash) < 2 {
		byHash[v.Hash] = wire.EncodeEnvelope(env)
	}
	var proofs [][]byte
	if len(byHash) >= 2 {
		for _, raw := range byHash {
			proofs = append(proofs, raw)
		}
		n.markEquivocatorLocked(env.Sender)
	}
	var relay []byte
	if proofs == nil && st.localSet && v.Hash != st.localHash {
		seen := st.relayed[env.Sender]
		if seen == nil {
			seen = make(map[codec.Hash]bool)
			st.relayed[env.Sender] = seen
		}
		if !seen[v.Hash] {
			seen[v.Hash] = true
			relay = wire.EncodeEnvelope(env)
		}
	}
	n.mu.Unlock()

	if n.ep != nil {
		for _, raw := range proofs {
			n.ep.Broadcast(wire.KindVoteEvidence, wire.SealEnvelope(n.key, wire.KindVoteEvidence, raw))
		}
		if relay != nil {
			n.ep.Broadcast(wire.KindVoteEvidence, wire.SealEnvelope(n.key, wire.KindVoteEvidence, relay))
		}
	}
	return proofs != nil
}

// markEquivocatorLocked flags sender and retracts any votes of theirs
// already counted in open tallies. Caller holds mu. Applied rounds stay
// applied — the retraction protects undecided rounds; a decided one was
// reached by honest votes alone or not at all (conflicting minority
// hashes can never reach the majority threshold).
func (n *Node) markEquivocatorLocked(sender string) {
	if n.equivocators[sender] {
		return
	}
	n.equivocators[sender] = true
	for _, st := range n.tallies {
		if h, ok := st.voted[sender]; ok {
			st.counts[h]--
			if st.counts[h] <= 0 {
				delete(st.counts, h)
			}
			delete(st.voted, sender)
		}
	}
}

// answerVote unicasts our own vote for round num back to peer, marked as
// a repair answer.
func (n *Node) answerVote(peer string, num uint64) {
	if n.ep == nil {
		return
	}
	n.mu.Lock()
	st := n.tallies[num]
	send := st != nil && st.localSet
	var local codec.Hash
	if send {
		local = st.localHash
	}
	n.mu.Unlock()
	if !send {
		return
	}
	vote := wire.VotePayload{
		Number: num, Hash: local, Marker: n.Chain().Marker(),
		Approve: true, Repair: true,
	}
	_ = n.ep.Send(peer, wire.KindVote, wire.SealEnvelope(n.key, wire.KindVote, wire.EncodeVote(vote)))
}

func (n *Node) recordVote(sender string, v wire.VotePayload) {
	n.mu.Lock()
	st := n.talliesFor(v.Number)
	if _, ok := st.voted[sender]; ok {
		n.mu.Unlock()
		return
	}
	st.voted[sender] = v.Hash
	st.counts[v.Hash]++
	n.mu.Unlock()
	n.maybeApplySummary(v.Number)
}

// maybeApplySummary appends the locally built summary once a quorum
// majority voted for the same hash. A majority on a different hash means
// this node's state diverged: it marks itself forked (§IV-B: "In case of
// a failure, the hash of the blocks are different, which would result in
// a fork").
func (n *Node) maybeApplySummary(num uint64) {
	n.mu.Lock()
	st := n.tallies[num]
	if st == nil || st.applied || !st.localSet {
		n.mu.Unlock()
		return
	}
	threshold := n.quorum.Threshold()
	var winner codec.Hash
	decided := false
	for h, count := range st.counts {
		if count >= threshold {
			winner, decided = h, true
			break
		}
	}
	if !decided {
		n.mu.Unlock()
		return
	}
	st.applied = true
	local := st.localHash
	n.mu.Unlock()

	if winner != local {
		n.mu.Lock()
		n.forked = true
		n.mu.Unlock()
		return
	}
	c := n.Chain()
	summary, err := c.BuildSummary()
	if err != nil {
		return // already appended via another path
	}
	if summary.Hash() != winner {
		n.mu.Lock()
		n.forked = true
		n.mu.Unlock()
		return
	}
	_ = c.AppendBlock(summary)
	// Clean up old tallies to bound memory.
	n.mu.Lock()
	for old := range n.tallies {
		if old+16 < num {
			delete(n.tallies, old)
		}
	}
	n.mu.Unlock()
}

func (n *Node) handleStatusReq(env wire.Envelope) {
	req := codec.NewDecoder(env.Body)
	reqID := req.Uint64()
	if req.Finish() != nil {
		return
	}
	c := n.Chain()
	head := c.Head()
	n.mu.Lock()
	forked := n.forked
	n.mu.Unlock()
	resp := wire.StatusPayload{
		ReqID:      reqID,
		HeadNumber: head.Number,
		HeadHash:   head.Hash(),
		Marker:     c.Marker(),
		Forked:     forked,
	}
	if n.ep != nil {
		_ = n.ep.Send(env.Sender, wire.KindStatusResp, wire.SealEnvelope(n.key, wire.KindStatusResp, wire.EncodeStatus(resp)))
	}
}

func (n *Node) handleLookupReq(env wire.Envelope) {
	req, err := wire.DecodeLookupReq(env.Body)
	if err != nil || n.ep == nil {
		return
	}
	resp := n.buildLookupResp(req)
	_ = n.ep.Send(env.Sender, wire.KindLookupResp, wire.SealEnvelope(n.key, wire.KindLookupResp, wire.EncodeLookupResp(resp)))
}

func (n *Node) buildLookupResp(req wire.LookupReqPayload) wire.LookupRespPayload {
	resp := wire.LookupRespPayload{ReqID: req.ReqID}
	c := n.Chain()
	ref := block.Ref{Block: req.RefBlock, Entry: req.RefEntry}
	entry, loc, ok := c.Lookup(ref)
	if !ok {
		return resp
	}
	holder, ok := c.Block(loc.Block)
	if !ok {
		return resp
	}
	proof, err := holder.EntryProof(loc.Index)
	if err != nil {
		return resp
	}
	resp.Found = true
	resp.Entry = entry.Encode()
	resp.Carried = loc.Carried
	resp.HolderBlock = holder.Header.Encode()
	resp.LeafIndex = uint32(proof.Index)
	resp.LeafCount = uint32(proof.LeafCount)
	for _, sib := range proof.Siblings {
		resp.ProofSibs = append(resp.ProofSibs, append([]byte(nil), sib[:]...))
	}
	if loc.Carried {
		resp.LeafBytes = holder.Carried[loc.Index].Encode()
	} else {
		resp.LeafBytes = holder.Entries[loc.Index].Encode()
	}
	return resp
}

// CorruptForTest mutates the node's deletion-mark state so its next
// summary diverges — used by the fork-detection tests (E11) to model a
// faulty or malicious node. It marks the given ref deleted without any
// authorization.
func (n *Node) CorruptForTest(ref block.Ref) {
	n.Chain().InjectMarkForTest(ref)
}

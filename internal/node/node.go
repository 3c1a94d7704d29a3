// The Node type: its constructor and Close, the read surface, and the
// dispatch of incoming messages to the state machines in pipeline.go,
// vote.go, sync.go and adopt.go. It owns mu and closed, guarded by mu.
// The fields no file names as its own are set once by New.

package node

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"sync"
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
	// restored from at startup — starting at its Genesis marker, so
	// only the live suffix is replayed — and an empty one is
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

// ErrClosed is returned by writes after Close. It wraps the pipeline's
// closed sentinel, so applications classify both with one errors.Is
// against the root façade's ErrClosed.
var ErrClosed = fmt.Errorf("node: %w", mempool.ErrClosed)

// Node is one anchor node.
type Node struct {
	mu       sync.Mutex
	name     string
	key      *identity.KeyPair
	chain    *chain.Chain // guarded by mu for the rare status-quo adoption swap
	chainCfg chain.Config // engine-wired config, reused by snapshot restores
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

	// stats counters below are guarded by mu.
	stats SyncStats
}

// New creates an anchor node and joins it to the network. With a
// populated Config.Store the chain is restored from the store's live
// suffix (the restart path); otherwise a fresh genesis is created.
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
// (restored from its live suffix, or mirrored into it from genesis),
// stand-alone without one.
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

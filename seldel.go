// Package seldel is a Go implementation of "Selective Deletion in a
// Blockchain" (Hillmann, Knüpfer, Heiland, Karcher — ICDCS 2020,
// arXiv:2101.05495): a blockchain that can forget.
//
// The chain is divided into sequences by periodically inserted,
// deterministically computed summary blocks Σ. When the live chain
// exceeds its configured bound, the oldest sequences are merged into the
// newest summary block — leaving out entries whose owners requested
// deletion, expired temporary entries, and deletion requests themselves —
// the Genesis marker shifts forward, and the cut prefix is physically
// deleted. References stay stable because carried entries keep their
// original block number, timestamp, and entry number.
//
// # Quickstart
//
//	reg := seldel.NewRegistry()
//	alice := seldel.DeterministicKey("alice", "demo")
//	_ = reg.RegisterKey(alice, seldel.RoleUser)
//
//	chain, _ := seldel.New(reg,
//		seldel.WithSequenceLength(3),
//		seldel.WithMaxSequences(2),
//	)
//	defer chain.Close()
//
//	ctx := context.Background()
//	sealed, _ := chain.SubmitWait(ctx,
//		seldel.NewData("alice", []byte("hello")).Sign(alice),
//	)
//	_, _ = chain.SubmitWait(ctx,
//		seldel.NewDeletion("alice", sealed[0].Ref).Sign(alice),
//	)
//	// After the retention bound passes, the entry is physically gone.
//
// # Writing concurrently
//
// Submit is the write path: entries from any number of goroutines are
// coalesced by the chain's submission pipeline into full blocks, and
// each entry's Receipt resolves to its stable Ref, block number, and
// block hash once sealed (or to a per-entry validation error):
//
//	receipts, err := chain.Submit(ctx, entryA, entryB)
//	sealed, err := receipts[0].Wait(ctx)
//
// Entries of one Submit call always seal in the same block. For reads,
// EntriesSeq and BlocksSeq stream the live chain without copying it, in
// physical order; EntriesAfter is the ordered seek — at most limit
// entries, ascending by Ref, strictly after a cursor, in O(log live +
// limit), optionally leaving out deletion-marked entries — that Server
// builds every /v1/entries page and stream chunk from.
//
// The subsystems are re-exported here so applications depend only on
// this package: identity management and role-based authorization,
// pluggable consensus engines (proof-of-work, proof-of-authority),
// quorum voting, persistent stores, a network simulator with anchor
// nodes and verifying clients, the audit-logging use case of the paper's
// evaluation, and the baselines and attack models used by the
// experiments. Failures can be classified with errors.Is against the
// sentinel errors re-exported in errors.go (ErrConfig, ErrUnauthorized,
// ErrNotFound, ErrClosed, …).
package seldel

import (
	"context"
	"fmt"

	"github.com/seldel/seldel/internal/audit"
	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/client"
	"github.com/seldel/seldel/internal/codec"
	"github.com/seldel/seldel/internal/consensus"
	"github.com/seldel/seldel/internal/deletion"
	"github.com/seldel/seldel/internal/doctor"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/loadgen"
	"github.com/seldel/seldel/internal/manifest"
	"github.com/seldel/seldel/internal/mempool"
	"github.com/seldel/seldel/internal/netsim"
	"github.com/seldel/seldel/internal/node"
	"github.com/seldel/seldel/internal/serve"
	"github.com/seldel/seldel/internal/simclock"
	"github.com/seldel/seldel/internal/store/segment"
	"github.com/seldel/seldel/internal/verify"
)

// Core chain types.
type (
	// Chain is a live selective-deletion blockchain.
	Chain = chain.Chain
	// Config parameterizes a Chain.
	Config = chain.Config
	// ShrinkPolicy selects how aggressively old sequences merge.
	ShrinkPolicy = chain.ShrinkPolicy
	// Stats is a snapshot of chain size and deletion counters.
	Stats = chain.Stats
	// Location says where an entry currently lives.
	Location = chain.Location
	// Mark is an approved, not-yet-executed deletion mark.
	Mark = chain.Mark
	// RefEntry pairs a live entry with its stable Ref; it is what
	// Chain.EntriesAfter (and a ServerBackend's) returns.
	RefEntry = chain.RefEntry
	// Listener observes chain mutations.
	Listener = chain.Listener
	// RenderOptions controls the paper-style console rendering.
	RenderOptions = chain.RenderOptions
)

// Submission-pipeline types.
type (
	// Receipt tracks one submitted entry; it resolves to a Sealed result
	// or a per-entry error once the entry's block is sealed.
	Receipt = mempool.Receipt
	// Sealed is where a submitted entry ended up: stable Ref, block
	// number, and block hash.
	Sealed = mempool.Sealed
	// PipelineStats are the submission pipeline's cumulative counters
	// and backpressure gauges (intake-queue depth, verifier counters,
	// compaction progress).
	PipelineStats = mempool.Stats
	// Verifier is the signature verifier: the verified-signature cache,
	// batch verification forked across a bounded number of goroutines,
	// and its counters; see NewVerifier and WithVerifier.
	Verifier = verify.Pool
	// VerifyStats is a snapshot of a Verifier's activity.
	VerifyStats = verify.Stats
)

// Block and entry types.
type (
	// Block is a full block (normal or summary).
	Block = block.Block
	// Header is a block header.
	Header = block.Header
	// Entry is one record inside a block.
	Entry = block.Entry
	// Ref addresses an entry by (block number, entry number).
	Ref = block.Ref
	// Hash is a SHA-256 content hash.
	Hash = codec.Hash
)

// Identity and authorization types.
type (
	// KeyPair is a named Ed25519 signing key.
	KeyPair = identity.KeyPair
	// Registry maps participant names to keys and roles.
	Registry = identity.Registry
	// Role is a participant privilege level.
	Role = identity.Role
	// DeletionPolicy selects requester authorization strictness.
	DeletionPolicy = deletion.Policy
	// AutoCohesionPolicy is the Bell-LaPadula-style automatic cohesion
	// decision of §IV-D.2 (set Config.AutoCohesion to enable it).
	AutoCohesionPolicy = deletion.AutoPolicy
)

// Consensus types.
type (
	// Engine seals and verifies normal blocks.
	Engine = consensus.Engine
	// Quorum is the anchor-node voting set.
	Quorum = consensus.Quorum
	// NoOpEngine accepts blocks as built.
	NoOpEngine = consensus.NoOp
)

// Distributed-deployment types.
type (
	// Network is the in-memory network substrate.
	Network = netsim.Network
	// NetworkConfig parameterizes the network simulator.
	NetworkConfig = netsim.Config
	// Node is an anchor node.
	Node = node.Node
	// NodeConfig assembles an anchor node.
	NodeConfig = node.Config
	// Client is a verifying light participant.
	Client = client.Client
	// ClientStatus is the majority status-quo answer.
	ClientStatus = client.Status
)

// Storage types.
type (
	// Store persists live blocks.
	Store = chain.Store
	// SegmentStore is the segmented store: blocks append into bounded,
	// length-prefixed segment files; truncation physically retires
	// whole segments; restores start at the durable Genesis marker. See
	// README "Storage".
	SegmentStore = segment.Store
	// SegmentOptions parameterize a SegmentStore (segment size, open
	// read-handle cap).
	SegmentOptions = segment.Options
)

// Deletion-manifest types: the durable audit trail every truncation of
// a segment-store chain writes atomically with the marker shift, and
// the tombstone/proof API built on it (Chain.Tombstones,
// Chain.ProveDeleted). See README "Audit trail".
type (
	// ManifestRecord is one deletion record: the marker shift, the
	// summary block that executed it, digests of the cut boundary, and
	// one Tombstone per deliberately forgotten entry.
	ManifestRecord = manifest.Record
	// Tombstone is the per-entry audit stub inside a ManifestRecord:
	// target reference, requester, request reference, entry digest, and
	// the co-signer set that authorized the deletion.
	Tombstone = manifest.Tombstone
	// DeletedProof is Chain.ProveDeleted's result: the manifest record
	// covering the erased entry plus, while the summary block is live, a
	// Merkle non-inclusion bracket proving the entry is NOT among the
	// carried survivors. Verify checks it self-contained.
	DeletedProof = chain.DeletedProof
	// DoctorOptions configures Doctor (check vs. repair vs. archive).
	DoctorOptions = doctor.Options
	// DoctorReport is Doctor's cross-validation result.
	DoctorReport = doctor.Report
)

// Audit use-case types (the paper's evaluation scenario).
type (
	// AuditLogger writes login events to the chain.
	AuditLogger = audit.Logger
	// LoginEvent is one audited terminal login.
	LoginEvent = audit.LoginEvent
	// AuditQuery filters audit queries.
	AuditQuery = audit.QueryOptions
)

// Clock types.
type (
	// Clock yields logical timestamps.
	Clock = simclock.Clock
	// LogicalClock is the deterministic counter clock.
	LogicalClock = simclock.Logical
)

// Roles.
const (
	RoleUser   = identity.RoleUser
	RoleAdmin  = identity.RoleAdmin
	RoleMaster = identity.RoleMaster
)

// Shrink policies (Eq. 1 iteration vs. round-robin merge of Fig. 3).
const (
	ShrinkMinimal      = chain.ShrinkMinimal
	ShrinkAllButNewest = chain.ShrinkAllButNewest
)

// DurabilityMode selects when submission receipts resolve relative to
// the store's durability point (see WithDurability).
type DurabilityMode = chain.DurabilityMode

// Durability modes.
const (
	// DurabilitySeal resolves receipts at seal time (the default);
	// durability follows the store's own fsync policy.
	DurabilitySeal = chain.DurabilitySeal
	// DurabilityGroup resolves receipts only once their blocks are on
	// stable storage, amortizing one fsync over every block sealed
	// while the previous sync was in flight (group commit).
	DurabilityGroup = chain.DurabilityGroup
)

// Deletion authorization policies (§IV-D.1).
const (
	PolicyOwnerOnly = deletion.PolicyOwnerOnly
	PolicyRoleBased = deletion.PolicyRoleBased
)

// NewRegistry returns an empty identity registry.
func NewRegistry() *Registry { return identity.NewRegistry() }

// GenerateKey creates a fresh random key pair.
func GenerateKey(name string) (*KeyPair, error) { return identity.Generate(name) }

// DeterministicKey derives a reproducible key pair (for tests and
// deterministic experiments).
func DeterministicKey(name, seed string) *KeyPair { return identity.Deterministic(name, seed) }

// NewData constructs an unsigned data entry; call Sign before submitting.
func NewData(owner string, payload []byte) *Entry { return block.NewData(owner, payload) }

// NewTemporary constructs an unsigned temporary entry that is forgotten
// once the chain passes expireTime or expireBlock (§IV-D.4).
func NewTemporary(owner string, payload []byte, expireTime, expireBlock uint64) *Entry {
	return block.NewTemporary(owner, payload, expireTime, expireBlock)
}

// NewDeletion constructs an unsigned deletion request for target.
func NewDeletion(requester string, target Ref) *Entry {
	return block.NewDeletion(requester, target)
}

// NewLogicalClock returns a deterministic clock starting at start.
func NewLogicalClock(start uint64) *LogicalClock { return simclock.NewLogical(start) }

// NewQuorum creates a majority-vote quorum over the given members.
func NewQuorum(members []string) (*Quorum, error) { return consensus.NewQuorum(members) }

// NewAutoCohesionPolicy builds the clearance-level automatic cohesion
// policy (§IV-D.2); unlisted participants default to level 0.
func NewAutoCohesionPolicy(levels map[string]int) *AutoCohesionPolicy {
	return deletion.NewAutoPolicy(levels)
}

// NewNetwork creates an in-memory network.
func NewNetwork(cfg NetworkConfig) *Network { return netsim.New(cfg) }

// NewNode creates an anchor node and joins it to its network.
func NewNode(cfg NodeConfig) (*Node, error) { return node.New(cfg) }

// NewClient joins a verifying client to the network.
func NewClient(key *KeyPair, reg *Registry, net *Network, anchors []string) (*Client, error) {
	return client.New(key, reg, net, anchors)
}

// NewSegmentStore opens (or creates) a segmented block store rooted at
// dir, recovering torn tails and interrupted truncations from a crash.
// The zero Options selects 1 MiB segments synced on roll/truncate/close.
func NewSegmentStore(dir string, opts SegmentOptions) (*SegmentStore, error) {
	return segment.Open(dir, opts)
}

// Doctor cross-validates a segment-store directory's durable deletion
// state — DELETIONS manifest, MANIFEST marker, segment files — and
// optionally repairs drift; the `seldel doctor`
// subcommand is a thin wrapper around it. Run it against a directory no
// chain has open (check mode is read-only, repair mode is not).
func Doctor(dir string, opts DoctorOptions) (*DoctorReport, error) {
	return doctor.Run(dir, opts)
}

// NewAuditLogger builds the login-audit logger of the paper's evaluation
// scenario over an existing chain.
func NewAuditLogger(c *Chain) *AuditLogger { return audit.NewLogger(c) }

// AuditRenderOptions returns console-render options that decode
// login-event payloads into the "login USER tty ok" style of the paper's
// Figs. 6-8 (other payloads fall back to hex).
func AuditRenderOptions() *RenderOptions {
	return &RenderOptions{
		ShowMarks: true,
		PayloadText: func(p []byte) string {
			probe := &Entry{Kind: block.KindData, Payload: p}
			if ev, err := audit.Decode(probe); err == nil {
				return ev.String()
			}
			return fmt.Sprintf("0x%x", p)
		},
	}
}

// Serving-layer types: the HTTP/2 (h2c) front-end of NewServer and the
// open-loop request scheduler the repo benchmark drives it with. See
// docs/ARCHITECTURE.md §9.
type (
	// Server is the HTTP front-end over a chain or a node: client-signed
	// submits with connection-level batching into
	// the submission pipeline, cursor pagination in Ref order (one
	// EntriesAfter seek per page, deletion-marked entries left out,
	// ?stream=1 as repeated seeks of a fixed chunk), tombstone/proof
	// reads, stats, and admission control that sheds with 429 +
	// Retry-After before the intake queue saturates.
	Server = serve.Server
	// ServerOptions parameterize a Server.
	ServerOptions = serve.Options
	// ServerBackend is what a Server fronts; *Chain and *Node both
	// satisfy it.
	ServerBackend = serve.Backend
	// LoadOptions parameterize one open-loop load run.
	LoadOptions = loadgen.Options
	// LoadSummary counts an open-loop run's requests by outcome:
	// scheduled, OK, shed, errored and dropped.
	LoadSummary = loadgen.Summary

	// SubmitRequest is the Server's POST /v1/submit body.
	SubmitRequest = serve.SubmitRequest
	// SubmitResponse is the Server's submit reply (sealed refs with
	// ?wait=1, an acceptance count without).
	SubmitResponse = serve.SubmitResponse
	// EntryJSON is one client-signed entry on the wire.
	EntryJSON = serve.EntryJSON
	// EntryPage is one GET /v1/entries page: entries with refs, the
	// next-page cursor, and the truncation epoch (cut_blocks).
	EntryPage = serve.EntryPage

	// LoadClass is a fire function's verdict about one open-loop request.
	LoadClass = loadgen.Class
)

// Open-loop outcome classes for LoadOptions.Fire.
const (
	LoadOK      = loadgen.OK
	LoadShed    = loadgen.Shed
	LoadErrored = loadgen.Errored
)

// NewEntryJSON converts a signed entry to its wire form for submission
// to a Server.
func NewEntryJSON(e *Entry) EntryJSON { return serve.NewEntryJSON(e) }

// NewServer builds the HTTP front-end over backend (a *Chain or a
// *Node). Closing the backend stays the caller's job.
func NewServer(backend ServerBackend, opts ServerOptions) *Server {
	return serve.New(backend, opts)
}

// RunLoad drives opts.Fire open-loop (a fixed schedule that never waits
// on a reply; see internal/loadgen) and counts the outcomes.
func RunLoad(ctx context.Context, opts LoadOptions) LoadSummary {
	return loadgen.Run(ctx, opts)
}

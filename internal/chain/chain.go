// Package chain implements the selective-deletion blockchain of the
// paper: a hash chain partitioned into sequences ω by periodically
// inserted summary blocks Σ (§IV-B), a shifting Genesis marker m (§IV-C),
// bounded live length per Eq. 1, deletion on request (§IV-D), and
// temporary entries (§IV-D.4).
package chain

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/codec"
	"github.com/seldel/seldel/internal/deletion"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/manifest"
	"github.com/seldel/seldel/internal/mempool"
	"github.com/seldel/seldel/internal/simclock"
	"github.com/seldel/seldel/internal/verify"
)

// ShrinkPolicy selects how many sequences are merged into a new summary
// block once the configured limit is exceeded.
type ShrinkPolicy uint8

const (
	// ShrinkMinimal cuts the oldest sequence, repeating until the limit
	// holds again — the literal iteration of Eq. 1.
	ShrinkMinimal ShrinkPolicy = iota + 1
	// ShrinkAllButNewest merges every complete sequence except the newest
	// one (the round-robin picture of Fig. 3; reproduces the prototype
	// behaviour of Figs. 6–8, where two sequences were merged at once).
	ShrinkAllButNewest
)

// Valid reports whether p is a defined policy.
func (p ShrinkPolicy) Valid() bool {
	return p == ShrinkMinimal || p == ShrinkAllButNewest
}

// Config parameterizes a Chain.
type Config struct {
	// SequenceLength is l, the distance δl between summary blocks: a
	// summary block occupies every block number α with (α+1) mod l == 0.
	// Must be at least 2 (one data block + the summary).
	SequenceLength int
	// MaxBlocks is lmax measured in live blocks; 0 disables the limit.
	MaxBlocks int
	// MaxSequences caps the number of complete live sequences instead
	// ("another property can be used, for example the maximum number of
	// sequences", §IV-C); 0 disables the limit.
	MaxSequences int
	// MinBlocks is a floor: truncation never leaves fewer live blocks
	// ("a minimum length … can be specified", §IV-D.3). 0 disables.
	MinBlocks int
	// MinTimeSpan is a floor on the logical time covered by live blocks
	// ("a minimum time span coverage", §IV-D.3). 0 disables.
	MinTimeSpan uint64
	// Shrink selects the merge policy; defaults to ShrinkAllButNewest.
	Shrink ShrinkPolicy
	// RedundancyReference enables the Fig. 9 middle-sequence Merkle
	// reference in summary blocks.
	RedundancyReference bool
	// Registry validates entry signatures and roles. Required.
	Registry *identity.Registry
	// Clock supplies logical timestamps. Defaults to a fresh Logical
	// clock starting at 0.
	Clock simclock.Clock
	// DeletionPolicy selects requester authorization strictness.
	// Defaults to role-based (§IV-D.1).
	DeletionPolicy deletion.Policy
	// AutoCohesion, when set, auto-approves cohesion for dependents whose
	// owners the requester's clearance dominates (the Bell-LaPadula-style
	// automatic approach of §IV-D.2). Nil keeps the pure co-signature rule.
	AutoCohesion *deletion.AutoPolicy
	// Seal, when set, finalizes freshly built normal blocks (e.g. mines
	// a proof-of-work nonce). Summary blocks are never sealed: every
	// node computes them locally (§IV-B).
	Seal func(*block.Block) error
	// VerifySeal, when set, checks the seal of appended normal blocks.
	VerifySeal func(*block.Block) error
	// Verifier is the signature-verification engine used by every
	// validation path (candidate entries, gossiped blocks, restores).
	// Nil means the process-wide shared pool (verify.Shared()), so
	// chains in one process share the verified-signature cache.
	Verifier *verify.Pool
	// Durability selects when submission receipts resolve relative to
	// the store's durability point: the zero value resolves at seal
	// time (durability follows the store's policy), DurabilityGroup
	// holds receipts until a group fsync of the chain's store (Open)
	// confirmed their blocks on stable storage — many sealed blocks per
	// sync under load.
	Durability Durability
}

func (c *Config) withDefaults() (Config, error) {
	cfg := *c
	if cfg.SequenceLength < 2 {
		return cfg, fmt.Errorf("%w: SequenceLength %d < 2", ErrConfig, cfg.SequenceLength)
	}
	if cfg.Registry == nil {
		return cfg, fmt.Errorf("%w: Registry is required", ErrConfig)
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.NewLogical(0)
	}
	if cfg.Shrink == 0 {
		cfg.Shrink = ShrinkAllButNewest
	}
	if !cfg.Shrink.Valid() {
		return cfg, fmt.Errorf("%w: invalid shrink policy %d", ErrConfig, cfg.Shrink)
	}
	if cfg.MaxBlocks < 0 || cfg.MaxSequences < 0 || cfg.MinBlocks < 0 {
		return cfg, fmt.Errorf("%w: negative limit", ErrConfig)
	}
	if cfg.MaxBlocks > 0 && cfg.MaxBlocks < cfg.SequenceLength {
		return cfg, fmt.Errorf("%w: MaxBlocks %d < SequenceLength %d", ErrConfig, cfg.MaxBlocks, cfg.SequenceLength)
	}
	if cfg.DeletionPolicy == 0 {
		cfg.DeletionPolicy = deletion.PolicyRoleBased
	}
	if cfg.Verifier == nil {
		cfg.Verifier = verify.Shared()
	}
	if err := cfg.Durability.validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// newAuthorizer builds the deletion authorizer from a validated config.
func newAuthorizer(cfg Config) *deletion.Authorizer {
	a := deletion.NewAuthorizer(cfg.Registry, cfg.DeletionPolicy)
	if cfg.AutoCohesion != nil {
		a = a.WithAutoPolicy(cfg.AutoCohesion)
	}
	return a
}

// Errors returned by chain operations.
var (
	ErrConfig          = errors.New("chain: invalid configuration")
	ErrNotNext         = errors.New("chain: block does not extend the head")
	ErrWrongSlot       = errors.New("chain: block kind does not match its slot")
	ErrTimeRegression  = errors.New("chain: block timestamp precedes head")
	ErrSummaryMismatch = errors.New("chain: summary block differs from locally computed summary")
	ErrEntryInvalid    = errors.New("chain: invalid entry")
	ErrDependsMissing  = errors.New("chain: dependency does not exist in the live chain")
	ErrDependsMarked   = errors.New("chain: dependency is marked for deletion")
	ErrNotFound        = errors.New("chain: entry not found")
	ErrSealFailed      = errors.New("chain: seal verification failed")
	ErrStore           = errors.New("chain: store write failed")
)

// Location says where an entry currently lives.
type Location struct {
	// Block is the number of the block currently holding the entry
	// (the origin block, or the summary block it migrated into).
	Block uint64
	// Index is the position within Entries (normal) or Carried (summary).
	Index int
	// Carried is true when the entry lives inside a summary block.
	Carried bool
}

// Mark is an approved deletion mark (§IV-D.3: "the specified data is
// marked to be deleted in the future").
type Mark struct {
	// Target is the entry to be forgotten.
	Target block.Ref
	// Requester is the participant whose request was approved.
	Requester string
	// RequestRef locates the deletion entry that created the mark.
	RequestRef block.Ref
	// MarkedAtBlock is the block number at which the mark was approved
	// (used by the delayed-deletion experiments, E8).
	MarkedAtBlock uint64
}

// Listener observes chain mutations. OnAppend runs synchronously after
// the mutation completed, the chain lock was released and the block
// reached the chain's store; OnTruncate runs on the chain's stage
// goroutine (stage.go), off the append path (CompactWait barriers on
// it), after the store was cut and only after the OnAppend calls of the
// append that truncated have returned. Implementations must not mutate
// the chain reentrantly from callbacks, and OnAppend must not wait for
// compaction (CompactWait, Tombstones).
type Listener interface {
	// OnAppend fires for every appended block (normal and summary).
	OnAppend(b *block.Block)
	// OnTruncate fires after a marker shift logically removed the
	// blocks with numbers in [oldMarker, newMarker), when the stage
	// has executed the physical cleanup.
	OnTruncate(oldMarker, newMarker uint64)
}

// Stats is a snapshot of chain size and deletion counters.
type Stats struct {
	// LiveBlocks is the number of blocks from marker to head.
	LiveBlocks int
	// LiveBytes is the total canonical encoded size of live blocks.
	LiveBytes int64
	// LiveEntries counts live, unexpired, unmarked data entries.
	LiveEntries int
	// CarriedEntries counts data entries living inside summary blocks.
	CarriedEntries int
	// AppendedBlocks counts every block ever appended (incl. genesis).
	AppendedBlocks uint64
	// CutBlocks counts blocks physically deleted by marker shifts.
	CutBlocks uint64
	// ActiveMarks counts approved deletion marks not yet physically
	// executed.
	ActiveMarks int
	// ForgottenEntries counts entries physically deleted on request.
	ForgottenEntries uint64
	// ExpiredEntries counts temporary entries dropped at summarization.
	ExpiredEntries uint64
	// RejectedRequests counts deletion requests that were included but
	// had no effect ("wrong requests … have no further effects", §V).
	RejectedRequests uint64
}

// Chain is a live selective-deletion blockchain. All methods are safe for
// concurrent use.
type Chain struct {
	mu   sync.RWMutex
	cfg  Config
	auth *deletion.Authorizer

	// blocks holds the live blocks; blocks[i].Header.Number == marker+i.
	blocks []*block.Block
	// marker is the shifting Genesis marker m: the number of the first
	// live block.
	marker uint64

	// dependents maps a target reference to the entries depending on it.
	dependents map[block.Ref][]deletion.Dependent
	// marks holds approved, not-yet-executed deletion marks.
	marks map[block.Ref]Mark

	// ledger is the chain's one entry index — every live data entry by
	// its stable reference, with its current location — and the
	// incremental summary-planning state: origin-ordered carried-entry
	// candidates plus expiry heaps (ledger.go).
	ledger carriedLedger
	// planned is the last summary plan (summary.go): written under the
	// read lock by BuildSummary, cleared by the append that consumes it.
	planned atomic.Pointer[plannedSummary]
	// liveEntries / carriedEntries are maintained incrementally on
	// append, mark, and truncate, so Stats() is O(1).
	liveEntries    int
	carriedEntries int

	liveBytes int64
	stats     Stats

	// Deletion audit state (tombstone.go): every executed truncation
	// appends one manifest.Record here; tombIndex resolves an erased
	// entry's origin ref to its record, tombFloor is the highest
	// recorded NewMarker (the resurrection floor consulted by sync),
	// and pendingTombs is the scratch list the current truncation's
	// sweep accumulates into before sealing its record.
	tombRecs     []manifest.Record
	tombIndex    map[block.Ref]int
	tombFloor    uint64
	nextTombSeq  uint64
	pendingTombs []manifest.Tombstone

	listeners []Listener
	// store is where the chain writes its blocks and cuts (store.go);
	// nil while it lives in memory only. Set by Open and Attach.
	store Store
	// storeErr latches the first persistence failure (failStore).
	storeErr atomic.Pointer[error]

	// pipe is the lazily started submission pipeline behind Submit,
	// read lock-free on the hot path and retained after Close so stats
	// stay readable; pipeMu serializes start/close transitions only.
	pipeMu     sync.Mutex
	pipe       atomic.Pointer[mempool.Batcher]
	pipeClosed bool
	// summaryStep, created by a SealBlocks waiting for a summary block,
	// is closed when the pipeline's flusher next finishes its summary
	// step (sealer.AfterResolve); stepMu guards it.
	stepMu      sync.Mutex
	summaryStep chan struct{}

	// stage runs what follows an append, in seal order: group-commit
	// syncs and the physical side of truncations (stage.go).
	stage *stage

	// owned are resources whose lifecycle the chain adopted (e.g. a
	// store opened internally by seldel.WithSegmentStore). Close shuts
	// them down last — after the pipeline and the stage drained.
	ownMu sync.Mutex
	owned []io.Closer
}

// Own transfers a resource's lifecycle to the chain: it is closed by
// Chain.Close after the submission pipeline and the stage have drained.
// Used by the façade for stores it opens on the caller's behalf;
// resources the caller constructed stay the caller's to close.
func (c *Chain) Own(r io.Closer) {
	c.ownMu.Lock()
	defer c.ownMu.Unlock()
	c.owned = append(c.owned, r)
}

// New creates a chain with a fresh genesis block (number 0, previous
// hash GenesisPrevHash, no entries) that lives in memory only. A chain
// on a store comes from Open; DurabilityGroup, which syncs the store,
// needs one.
func New(cfg Config) (*Chain, error) {
	if cfg.Durability.Mode == DurabilityGroup {
		return nil, fmt.Errorf("%w: DurabilityGroup requires a store (chain.Open)", ErrConfig)
	}
	return newGenesis(cfg)
}

// newGenesis is New without the store check: Open attaches one next.
func newGenesis(cfg Config) (*Chain, error) {
	full, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	c := blankChain(full)
	genesis := block.NewNormal(0, full.Clock.Tick(), block.GenesisPrevHash, nil)
	c.blocks = append(c.blocks, genesis)
	c.liveBytes = int64(genesis.EncodedSize())
	c.stats.AppendedBlocks = 1
	return c, nil
}

// blankChain returns an empty chain on a defaulted config: no blocks yet.
func blankChain(full Config) *Chain {
	c := &Chain{
		cfg:         full,
		auth:        newAuthorizer(full),
		dependents:  make(map[block.Ref][]deletion.Dependent),
		marks:       make(map[block.Ref]Mark),
		ledger:      newCarriedLedger(),
		tombIndex:   make(map[block.Ref]int),
		nextTombSeq: 1,
	}
	c.stage = newStage(c.syncStore, full.Durability.GroupWindow, c.runCompaction)
	return c
}

// AddListener registers a mutation observer.
func (c *Chain) AddListener(l Listener) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.listeners = append(c.listeners, l)
}

// Registry returns the identity registry the chain validates against.
func (c *Chain) Registry() *identity.Registry { return c.cfg.Registry }

// Verifier returns the signature-verification pool the chain validates
// through, so adjacent layers (mempool warming, a node's pipeline)
// share its verified-signature cache.
func (c *Chain) Verifier() *verify.Pool { return c.cfg.Verifier }

// Marker returns the current Genesis marker m.
func (c *Chain) Marker() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.marker
}

// Head returns the header of the newest block.
func (c *Chain) Head() block.Header {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.head().Header
}

func (c *Chain) head() *block.Block { return c.blocks[len(c.blocks)-1] }

// Len returns the number of live blocks (lβ).
func (c *Chain) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.blocks)
}

// NextNumber returns the block number the next appended block must carry.
func (c *Chain) NextNumber() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.head().Header.Number + 1
}

// isSummarySlot reports whether block number α is a summary position.
func (c *Chain) isSummarySlot(num uint64) bool {
	return (num+1)%uint64(c.cfg.SequenceLength) == 0
}

// NextIsSummary reports whether the next block must be a summary block.
func (c *Chain) NextIsSummary() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.isSummarySlot(c.head().Header.Number + 1)
}

// blockAt returns the live block with the given number.
func (c *Chain) blockAt(num uint64) (*block.Block, bool) {
	// Compared unsigned: a number far past the head (a client's cursor)
	// must not wrap into a negative offset.
	if num < c.marker || num-c.marker >= uint64(len(c.blocks)) {
		return nil, false
	}
	return c.blocks[num-c.marker], true
}

// Block returns the live block with the given number.
func (c *Chain) Block(num uint64) (*block.Block, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	b, ok := c.blockAt(num)
	return b, ok
}

// Blocks returns the live blocks in order. The returned slice is fresh
// but shares the (immutable-by-convention) block values. Prefer
// BlocksSeq for scans that may stop early.
func (c *Chain) Blocks() []*block.Block {
	return c.snapshotBlocks()
}

// Lookup resolves a stable entry reference to the entry and its current
// location (possibly inside a summary block).
func (c *Chain) Lookup(ref block.Ref) (*block.Entry, Location, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.lookup(ref)
}

// lookup resolves ref through the ledger. A candidate's entry is its
// holder's own, so no block is consulted.
func (c *Chain) lookup(ref block.Ref) (*block.Entry, Location, bool) {
	cand, ok := c.ledger.byRef[ref]
	if !ok {
		return nil, Location{}, false
	}
	return cand.ce.Entry, cand.location(), true
}

// IsMarked reports whether ref carries an approved deletion mark.
func (c *Chain) IsMarked(ref block.Ref) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.marks[ref]
	return ok
}

// Marks returns the active deletion marks.
func (c *Chain) Marks() []Mark {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]Mark, 0, len(c.marks))
	for _, m := range c.marks {
		out = append(out, m)
	}
	return out
}

// Stats returns a snapshot of the chain's size and deletion counters.
// All counters are maintained incrementally, so the call is O(1).
func (c *Chain) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s := c.stats
	s.LiveBlocks = len(c.blocks)
	s.LiveBytes = c.liveBytes
	s.ActiveMarks = len(c.marks)
	s.LiveEntries = c.liveEntries
	s.CarriedEntries = c.carriedEntries
	return s
}

// verifyEntries checks the chain-state-independent rules of a candidate
// entry batch — structural shape and owner signature — through the
// parallel verification pool. It takes no lock: signature checking is
// the dominant validation cost and must not serialize behind Chain.mu.
func (c *Chain) verifyEntries(entries []*block.Entry) error {
	if err := c.cfg.Verifier.Entries(c.cfg.Registry, entries); err != nil {
		var ee *verify.EntryError
		if errors.As(err, &ee) {
			return fmt.Errorf("%w: entry %d: %v", ErrEntryInvalid, ee.Index, ee.Err)
		}
		return fmt.Errorf("%w: %v", ErrEntryInvalid, err)
	}
	return nil
}

// validateDepsLocked checks the chain-state-dependent rules of a
// candidate entry batch: dependency existence and mark status. Callers
// must hold the chain lock; signatures are checked separately (and
// before) by verifyEntries.
func (c *Chain) validateDepsLocked(entries []*block.Entry) error {
	for i, e := range entries {
		if e.Kind != block.KindData {
			continue
		}
		for _, dep := range e.DependsOn {
			if _, ok := c.ledger.byRef[dep]; !ok {
				return fmt.Errorf("%w: entry %d depends on %s", ErrDependsMissing, i, dep)
			}
			// §IV-D.3: "Subsequent incoming transactions based on this
			// marked data are no longer permitted."
			if _, marked := c.marks[dep]; marked {
				return fmt.Errorf("%w: entry %d depends on %s", ErrDependsMarked, i, dep)
			}
		}
	}
	return nil
}

// ValidateEntries checks candidate entries against the live chain state
// (shape, signature, dependency rules) without building a block or
// advancing the clock. Signatures verify in parallel outside the chain
// lock; only the dependency rules are checked under it. Note that
// entries cannot depend on other entries in the same candidate set:
// dependencies must already be committed. After a store failure every
// entry fails with it (StoreErr): the chain appends nothing more.
func (c *Chain) ValidateEntries(entries []*block.Entry) error {
	if err := c.StoreErr(); err != nil {
		return err
	}
	if err := c.verifyEntries(entries); err != nil {
		return err
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.validateDepsLocked(entries)
}

// InjectMarkForTest forcibly adds a deletion mark, bypassing all
// authorization. It exists solely for fault injection — modelling a
// corrupted node whose locally computed summary diverges from the quorum
// (§IV-B) — and must never be called on a production chain.
func (c *Chain) InjectMarkForTest(ref block.Ref) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.markLocked(ref)
	c.marks[ref] = Mark{Target: ref, Requester: "<fault-injection>"}
	// The one input change that leaves the head alone: the stored Σ no
	// longer follows from the state.
	c.planned.Store(nil)
}

// buildNormal assembles (but does not append) the next normal block from
// the given entries. The block is unsealed; CommitNormal seals it before
// appending. Fails if the next slot is a summary slot or any entry is
// invalid. Signatures verify in parallel before the chain lock is taken;
// only slot and dependency rules run under it.
func (c *Chain) buildNormal(entries []*block.Entry) (*block.Block, error) {
	if err := c.verifyEntries(entries); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	next := c.head().Header.Number + 1
	if c.isSummarySlot(next) {
		return nil, fmt.Errorf("%w: block %d is a summary slot", ErrWrongSlot, next)
	}
	if err := c.validateDepsLocked(entries); err != nil {
		return nil, err
	}
	return block.NewNormal(next, c.cfg.Clock.Tick(), c.head().Hash(), entries), nil
}

// AppendBlock validates and appends a block received from consensus or
// gossip. Summary blocks are compared bit-for-bit against the locally
// computed summary (§IV-B); a mismatch signals a fork. The very block
// BuildSummary returned is that summary, so it is neither shape-checked
// nor compared again. Entry signatures
// of normal blocks — including the co-signatures of deletion requests —
// verify in parallel before the chain lock is taken, but only after the
// cheap chain-position screen, so a flood of stale or mispositioned
// blocks is rejected in O(1) instead of costing one Ed25519 check per
// entry. The chain-state-dependent rules (hash link, slot kind,
// dependencies, seal, deletion cohesion) are checked under the lock,
// consuming the precomputed signature verdicts. Truncation triggered by
// a summary block is executed logically under the lock; its physical
// side is queued on the chain's stage (see CompactWait). After a store
// failure every append fails with it (StoreErr).
func (c *Chain) AppendBlock(b *block.Block) error {
	_, err := c.appendBlock(b)
	return err
}

// appendBlock is AppendBlock surfacing the deletion-mark outcomes of
// the appended block's entries, for the receipts of CommitNormal.
func (c *Chain) appendBlock(b *block.Block) ([]mempool.MarkOutcome, error) {
	if err := c.StoreErr(); err != nil {
		return nil, err
	}
	// Σ as this chain planned it is built from checked entries; any other
	// block, a copy of that Σ included, is checked.
	if !c.isPlanned(b) {
		if err := b.CheckShape(); err != nil {
			return nil, err
		}
	}
	var checks cosigChecks
	if !b.IsSummary() {
		if err := c.screenPosition(b); err != nil {
			return nil, err
		}
		if err := c.verifyEntries(b.Entries); err != nil {
			return nil, err
		}
		checks = c.precheckDeletions(b.Entries)
	}
	return c.appendVerified(b, checks)
}

// appendVerified finishes an append whose lock-free verification
// already ran, returning the mark outcomes of the block's deletion
// entries (aligned with b.Entries; nil for summary blocks) so the
// submission pipeline can resolve them onto receipts. The appended
// blocks reach the store before any listener.
func (c *Chain) appendVerified(b *block.Block, checks cosigChecks) ([]mempool.MarkOutcome, error) {
	c.mu.Lock()
	events, err := c.appendLocked(b, checks)
	s := c.store
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	c.storeBlocks(s, events.appended)
	for _, l := range c.listenersSnapshot() {
		for _, ab := range events.appended {
			l.OnAppend(ab)
		}
	}
	if events.listened != nil {
		close(events.listened)
	}
	return events.outcomes, nil
}

// cosigChecks holds the lock-free co-signature prechecks of a candidate
// batch, keyed by the entry's position. Entries without a precheck fail
// closed (zero CoSigCheck approves nobody).
type cosigChecks map[int]deletion.CoSigCheck

// precheckDeletions batch-verifies the co-signatures of every deletion
// entry in the batch through the verification pool, WITHOUT taking the
// chain lock — the signature half of §IV-D authorization. Returns nil
// when the batch holds no deletion entries.
func (c *Chain) precheckDeletions(entries []*block.Entry) cosigChecks {
	var checks cosigChecks
	for i, e := range entries {
		if e.Kind != block.KindDeletion {
			continue
		}
		if checks == nil {
			checks = make(cosigChecks)
		}
		checks[i] = deletion.PrecheckRequest(c.cfg.Verifier, c.cfg.Registry, e)
	}
	return checks
}

// screenPosition cheaply pre-checks a candidate block's chain position
// under the read lock, before signature verification pays per-entry
// Ed25519 cost. appendLocked re-checks everything authoritatively; a
// block that passes here can still lose the race to a concurrent
// append, and a block rejected here could at worst have become
// appendable in that same window (gossip recovers it via sync).
func (c *Chain) screenPosition(b *block.Block) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.checkLink(c.head(), b)
}

// checkLink checks everything that ties block b to its predecessor prev:
// consecutive number, hash link, the kind its slot demands, and the
// timestamp rules (a summary repeats its predecessor's time, §IV-B; a
// normal block never runs behind it). prev is nil for the marker block
// of a restored suffix, which has no live predecessor: only its slot is
// checked. Appending (screenPosition, appendLocked), restoring
// (registerRestoredBlock) and auditing (VerifyIntegrity) all link
// through here, so none of them accepts what another rejects.
func (c *Chain) checkLink(prev, b *block.Block) error {
	num := b.Header.Number
	if prev != nil {
		if want := prev.Header.Number + 1; num != want {
			return fmt.Errorf("%w: got %d, want %d", ErrNotNext, num, want)
		}
		if b.Header.PrevHash != prev.Hash() {
			return fmt.Errorf("%w: previous hash mismatch at %d", ErrNotNext, num)
		}
	}
	if want := c.isSummarySlot(num); b.IsSummary() != want {
		return fmt.Errorf("%w: block %d: summary=%v, slot wants %v", ErrWrongSlot, num, b.IsSummary(), want)
	}
	if prev == nil {
		return nil
	}
	if b.IsSummary() && b.Header.Time != prev.Header.Time {
		return fmt.Errorf("%w: block %d: timestamp %d differs from its predecessor's %d",
			ErrSummaryMismatch, num, b.Header.Time, prev.Header.Time)
	}
	if b.Header.Time < prev.Header.Time {
		return fmt.Errorf("%w: block %d: %d < %d", ErrTimeRegression, num, b.Header.Time, prev.Header.Time)
	}
	return nil
}

type chainEvents struct {
	appended []*block.Block
	// listened, set when the append truncated, is closed once the
	// appended blocks reached every listener; the truncation waits for it.
	listened chan struct{}
	// outcomes are the per-entry deletion-mark outcomes of an appended
	// normal block (nil when it held no deletion entries).
	outcomes []mempool.MarkOutcome
}

func (c *Chain) listenersSnapshot() []Listener {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]Listener, len(c.listeners))
	copy(out, c.listeners)
	return out
}

// appendLocked applies the chain-state-dependent checks and mutations of
// an append. Shape, entry signatures, and deletion co-signatures were
// already verified lock-free by AppendBlock; checks carries the
// co-signature verdicts for the batch's deletion entries.
func (c *Chain) appendLocked(b *block.Block, checks cosigChecks) (chainEvents, error) {
	var events chainEvents
	if err := c.checkLink(c.head(), b); err != nil {
		return events, err
	}

	if b.IsSummary() {
		p := c.planSummaryLocked()
		if b != p.block && p.block.Hash() != b.Hash() {
			return events, fmt.Errorf("%w: block %d: got %s, computed %s",
				ErrSummaryMismatch, b.Header.Number, b.Hash(), p.block.Hash())
		}
		// Consumed: no Σ is retained past its slot.
		c.planned.Store(nil)
		c.pushBlock(b)
		c.rehomeLocked(b, p)
		events.appended = append(events.appended, b)
		if ev := c.applyPlanLocked(p.plan); ev != nil {
			// Staged while still under the chain lock, which keeps cuts
			// in marker order across concurrent appenders, and held
			// until this append has stored Σ and run its listeners
			// (appendVerified closes listened), so the store is never
			// cut below a Σ it has not written.
			events.listened = make(chan struct{})
			c.stage.push(stageItem{cut: ev, listened: events.listened})
		}
		return events, nil
	}

	// Normal block.
	if c.cfg.VerifySeal != nil {
		if err := c.cfg.VerifySeal(b); err != nil {
			return events, fmt.Errorf("%w: %v", ErrSealFailed, err)
		}
	}
	if err := c.validateDepsLocked(b.Entries); err != nil {
		return events, err
	}
	c.pushBlock(b)
	events.outcomes = c.processNormal(b, checks)
	events.appended = append(events.appended, b)
	return events, nil
}

// pushBlock links b into the live slice and, for a normal block, enters
// its data entries into the ledger and the live counters. A summary
// block's carried entries are the caller's: an append re-homes its
// plan's candidates (rehomeLocked), a restore migrates by lookup.
func (c *Chain) pushBlock(b *block.Block) {
	c.blocks = append(c.blocks, b)
	c.liveBytes += int64(b.EncodedSize())
	c.stats.AppendedBlocks++
	if b.IsSummary() {
		return
	}
	for i, e := range b.Entries {
		if e.Kind != block.KindData {
			continue
		}
		c.ledger.add(block.CarriedEntry{
			OriginBlock: b.Header.Number,
			OriginTime:  b.Header.Time,
			EntryNumber: uint32(i),
			Entry:       e,
		})
		c.liveEntries++
	}
}

// processNormal applies the side effects of a freshly appended normal
// block: dependency registration and deletion-request processing.
// checks holds the lock-free co-signature verdicts of the block's
// deletion entries (precheckDeletions), so no signature is verified
// while the chain lock is held. The returned outcomes (aligned with
// b.Entries, nil when the block held no deletion entries) say which
// requests created marks and which were silently rejected — the
// submission pipeline resolves them onto receipts.
func (c *Chain) processNormal(b *block.Block, checks cosigChecks) []mempool.MarkOutcome {
	num := b.Header.Number
	var outcomes []mempool.MarkOutcome
	for i, e := range b.Entries {
		ref := block.Ref{Block: num, Entry: uint32(i)}
		switch e.Kind {
		case block.KindData:
			for _, dep := range e.DependsOn {
				c.dependents[dep] = append(c.dependents[dep], deletion.Dependent{Ref: ref, Owner: e.Owner})
			}
		case block.KindDeletion:
			if outcomes == nil {
				outcomes = make([]mempool.MarkOutcome, len(b.Entries))
			}
			if c.processDeletionRequest(e, ref, num, checks[i]) {
				outcomes[i] = mempool.MarkApproved
			} else {
				outcomes[i] = mempool.MarkRejected
			}
		}
	}
	return outcomes
}

// processDeletionRequest validates a deletion request against §IV-D and
// creates a mark on success, reporting whether the mark was approved.
// Invalid requests stay in the chain but have no effect ("wrong request
// of deletions can be included in the blockchain, but these have no
// further effects", §V). The co-signature verdicts arrive precomputed;
// only the stateful rules run here.
func (c *Chain) processDeletionRequest(e *block.Entry, ref block.Ref, atBlock uint64, pre deletion.CoSigCheck) bool {
	target, _, ok := c.lookup(e.Target)
	if !ok {
		c.stats.RejectedRequests++
		return false
	}
	if err := c.auth.ValidateRequestPrechecked(e, target, c.liveDependents(e.Target), pre); err != nil {
		c.stats.RejectedRequests++
		return false
	}
	c.markLocked(e.Target)
	c.marks[e.Target] = Mark{
		Target:        e.Target,
		Requester:     e.Owner,
		RequestRef:    ref,
		MarkedAtBlock: atBlock,
	}
	return true
}

// markLocked is the logical half of a new mark on ref, whose Mark the
// caller records next: the entry leaves the live counters and its ledger
// candidate is flagged, so no later Σ carries it. Physical deletion
// happens at the marker shift that cuts its holder. A ref already
// marked, or not live, is left alone.
func (c *Chain) markLocked(ref block.Ref) {
	if _, already := c.marks[ref]; already {
		return
	}
	cand, ok := c.ledger.byRef[ref]
	if !ok {
		return
	}
	c.liveEntries--
	if cand.carried() {
		c.carriedEntries--
	}
	cand.marked = true
}

// liveDependents returns the dependents of target that are still alive
// and not themselves marked for deletion.
func (c *Chain) liveDependents(target block.Ref) []deletion.Dependent {
	var out []deletion.Dependent
	for _, dep := range c.dependents[target] {
		if _, ok := c.ledger.byRef[dep.Ref]; !ok {
			continue
		}
		if _, marked := c.marks[dep.Ref]; marked {
			continue
		}
		out = append(out, dep)
	}
	return out
}

// CheckDeletionRequest eagerly validates a deletion request without
// appending anything, so clients learn about rejections before paying for
// a block (§IV-D). The chain still tolerates invalid requests on-chain.
// Co-signatures verify through the pool before the read lock is taken.
func (c *Chain) CheckDeletionRequest(e *block.Entry) error {
	if e.Kind != block.KindDeletion {
		return fmt.Errorf("%w: not a deletion entry", ErrEntryInvalid)
	}
	pre := deletion.PrecheckRequest(c.cfg.Verifier, c.cfg.Registry, e)
	c.mu.RLock()
	defer c.mu.RUnlock()
	target, _, ok := c.lookup(e.Target)
	if !ok {
		return fmt.Errorf("%w: target %s", ErrNotFound, e.Target)
	}
	return c.auth.ValidateRequestPrechecked(e, target, c.liveDependents(e.Target), pre)
}

// CommitNormal builds, seals (Config.Seal), appends and stores a normal
// block holding entries, returning it with its deletion-mark verdicts
// (aligned with entries).
//
// CommitNormal is the single-writer sealing primitive under both write
// paths: the chain's submission pipeline and a node's proposal pipeline.
// Concurrent calls do not corrupt the chain, but they can fail with
// ErrNotNext when they race for the same head slot; each pipeline's
// single flusher serializes its own.
func (c *Chain) CommitNormal(entries []*block.Entry) (*block.Block, []mempool.MarkOutcome, error) {
	normal, err := c.buildNormal(entries)
	if err != nil {
		return nil, nil, err
	}
	if c.cfg.Seal != nil {
		if err := c.cfg.Seal(normal); err != nil {
			return nil, nil, fmt.Errorf("chain: seal: %w", err)
		}
	}
	outcomes, err := c.appendBlock(normal)
	if err != nil {
		return nil, nil, err
	}
	return normal, outcomes, nil
}

// sealSummaries builds and appends the summary block Σ while the next
// slot is a summary slot (the consensus-extension behaviour of §IV-B),
// returning what it appended.
func (c *Chain) sealSummaries() ([]*block.Block, error) {
	var appended []*block.Block
	for c.NextIsSummary() {
		summary, err := c.BuildSummary()
		if err != nil {
			return appended, err
		}
		if err := c.AppendBlock(summary); err != nil {
			return appended, err
		}
		appended = append(appended, summary)
	}
	return appended, nil
}

// commit appends a normal block holding entries with the summary blocks
// due around it, returning every block appended, in chain order, and the
// normal block's deletion-mark verdicts. A Σ can be due before the block:
// the submission pipeline seals the Σ a batch leaves due only after the
// batch's receipts resolved (sealer.AfterResolve).
func (c *Chain) commit(entries []*block.Entry) ([]*block.Block, []mempool.MarkOutcome, error) {
	// A lost race leaves a due Σ to its winner; any other failure leaves
	// the slot due, and buildNormal reports it.
	appended, _ := c.sealSummaries()
	normal, outcomes, err := c.CommitNormal(entries)
	if err != nil {
		return appended, nil, err
	}
	after, err := c.sealSummaries()
	return append(append(appended, normal), after...), outcomes, err
}

// AppendEmpty appends an empty filler block and the summary blocks due
// around it, returning every block appended in chain order.
// Deployed "to prevent a long delay in deletion … by regularly adding
// empty blocks … if no transaction has occurred" (§IV-D.3). Like Submit
// it can lose a head race against concurrent writers (ErrNotNext);
// retention tickers simply retry on the next tick.
func (c *Chain) AppendEmpty() ([]*block.Block, error) {
	blocks, _, err := c.commit(nil)
	return blocks, err
}

// VerifyIntegrity re-validates the whole live chain: body commitments,
// and link by link numbers, hash links, slot kinds and timestamps. It
// returns the first violation found. Signatures are VerifySignatures'.
func (c *Chain) VerifyIntegrity() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if first := c.blocks[0].Header.Number; first != c.marker {
		return fmt.Errorf("first live block has number %d, want the marker %d", first, c.marker)
	}
	var prev *block.Block
	for _, b := range c.blocks {
		if err := b.CheckShape(); err != nil {
			return fmt.Errorf("block %d: %w", b.Header.Number, err)
		}
		if err := c.checkLink(prev, b); err != nil {
			return err
		}
		prev = b
	}
	return nil
}

// VerifySignatures is the audit a trusted reopen leaves out (see
// restoreOwnStream): it verifies the owner signature of every live
// entry, carried entries included, and re-derives every active deletion
// mark from the co-signatures of the request that created it. The first
// failure names the block and the entry. A chain restored from its own
// store passes unless the store was rewritten by someone able to re-hash
// it; run it after a reopen whose directory was out of the node's hands.
func (c *Chain) VerifySignatures() error {
	if err := c.cfg.Verifier.Blocks(c.cfg.Registry, c.snapshotBlocks()); err != nil {
		return err
	}
	type markedRequest struct {
		mark Mark
		req  *block.Entry
		pre  deletion.CoSigCheck
	}
	var requests []markedRequest
	c.mu.RLock()
	for _, m := range c.marks {
		// A mark's request is live as long as the mark is: a cut that
		// takes the request's block takes the older target with it.
		// (Marks injected for fault tests have no request.)
		if b, ok := c.blockAt(m.RequestRef.Block); ok && !b.IsSummary() && int(m.RequestRef.Entry) < len(b.Entries) {
			requests = append(requests, markedRequest{mark: m, req: b.Entries[m.RequestRef.Entry]})
		}
	}
	c.mu.RUnlock()
	for i := range requests {
		requests[i].pre = deletion.PrecheckRequest(c.cfg.Verifier, c.cfg.Registry, requests[i].req)
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, r := range requests {
		target, _, ok := c.lookup(r.mark.Target)
		if _, still := c.marks[r.mark.Target]; !ok || !still {
			continue // executed by a truncation since the snapshot
		}
		if err := c.auth.ValidateRequestPrechecked(r.req, target, c.liveDependents(r.mark.Target), r.pre); err != nil {
			return fmt.Errorf("block %d: entry %d: deletion mark on %s is not backed by its request: %w",
				r.mark.RequestRef.Block, r.mark.RequestRef.Entry, r.mark.Target, err)
		}
	}
	return nil
}

// HeadHash returns the hash of the newest block.
func (c *Chain) HeadHash() codec.Hash {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.head().Hash()
}

// runCompaction executes the physical side of one truncation: release
// the cut prefix's memory, sweep dead dependency edges, write the cut
// and its deletion record to the store, then tell the listeners. The
// logical truncation (marker shift, ledger sweep) already happened under
// the append lock — validation correctness never waits for the stage.
func (c *Chain) runCompaction(ev Event) {
	c.mu.Lock()
	// Copy the live slice into a fresh backing array so the cut prefix
	// (still pinned by the shared array after the appender's cheap
	// re-slice) becomes collectable.
	c.blocks = append(make([]*block.Block, 0, len(c.blocks)+8), c.blocks...)
	// Sweep the dependency graph: drop edges whose endpoints died.
	// liveDependents filters through the entry index, so stale edges
	// are invisible in the meantime — this is pure space reclamation.
	for target, deps := range c.dependents {
		if _, ok := c.ledger.byRef[target]; !ok {
			delete(c.dependents, target)
			continue
		}
		kept := deps[:0]
		for _, dep := range deps {
			if _, ok := c.ledger.byRef[dep.Ref]; ok {
				kept = append(kept, dep)
			}
		}
		if len(kept) == 0 {
			delete(c.dependents, target)
		} else {
			c.dependents[target] = kept
		}
	}
	// Drop the candidates truncations pruned from the ordered list once
	// they are a share of it, and, when large cuts left the entry index
	// mostly dead buckets, rebuild it right-sized, while we are already
	// off the append path.
	c.ledger.compact(c.marker)
	c.ledger.maybeShrink()
	s := c.store
	c.mu.Unlock()
	// The store's disk work below blocks in fsync. Yield first, so the
	// goroutine that resolved the truncating batch's receipts — an HTTP
	// reply, say — runs before the stage holds the processor.
	runtime.Gosched()
	c.storeCut(s, ev)
	for _, l := range c.listenersSnapshot() {
		l.OnTruncate(ev.OldMarker, ev.NewMarker)
	}
}

// CompactWait blocks until every truncation that happened before the
// call has been physically compacted (memory released, stores pruned,
// OnTruncate listeners notified), or ctx is cancelled. It is the
// determinism barrier for tests and experiments that assert on
// post-truncation state. It waits for the whole stage, so under
// DurabilityGroup for the syncs queued before it too; on an idle stage
// it returns at once.
func (c *Chain) CompactWait(ctx context.Context) error {
	return c.stage.wait(ctx)
}

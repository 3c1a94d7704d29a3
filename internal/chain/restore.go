package chain

import (
	"fmt"
	"iter"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/deletion"
)

// Restorer rebuilds a chain from live blocks pushed to it one at a time
// — blocks that crossed a trust boundary on their way here, such as the
// chunks of a peer's snapshot offer. The blocks must be the exact live
// suffix of a selective-deletion chain: consecutive numbers starting at
// the marker, hash-linked, with summary blocks in their slots, the first
// block being the current Genesis marker (§IV-C: the marker block "is a
// trusted anchor for the left blockchain part already approved by the
// anchor nodes"). Nothing is believed: on top of everything
// restoreOwnStream checks, the owner signature of every entry —
// including entries carried inside summary blocks — is verified through
// the parallel verification pool, so a malicious offer is rejected at
// the offending block instead of poisoning later validations.
// VerifySignatures runs the same check over a chain that is already
// open.
//
// Each Add checks and registers its block before it returns, so a
// caller holds no more than the block it is adding. After an error —
// an invalid Config included — the restore is dead: Add and Finish
// return that error.
type Restorer struct {
	c         *Chain
	prev      *block.Block
	ownerSigs bool
	err       error
}

// NewRestorer starts a restore of somebody else's blocks.
func NewRestorer(cfg Config) *Restorer { return newRestorer(cfg, true) }

func newRestorer(cfg Config, ownerSigs bool) *Restorer {
	full, err := cfg.withDefaults()
	if err != nil {
		return &Restorer{err: err}
	}
	return &Restorer{
		c:         blankChain(full),
		ownerSigs: ownerSigs,
	}
}

// Add checks b against the blocks added before it and registers it.
func (r *Restorer) Add(b *block.Block) error {
	if r.err == nil {
		r.err = r.add(b)
	}
	return r.err
}

func (r *Restorer) add(b *block.Block) error {
	c := r.c
	checks, err := c.verifyRestoredBlock(b, r.ownerSigs)
	if err != nil {
		return err
	}
	if r.prev == nil {
		c.marker = b.Header.Number
		if c.marker%uint64(c.cfg.SequenceLength) != 0 {
			return fmt.Errorf("%w: first block %d is not sequence-aligned", ErrConfig, c.marker)
		}
	}
	if err := c.registerRestoredBlock(b, r.prev, checks); err != nil {
		return err
	}
	r.prev = b
	return nil
}

// Finish returns the restored chain once the last block has been added.
func (r *Restorer) Finish() (*Chain, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.prev == nil {
		return nil, fmt.Errorf("%w: no blocks to restore", ErrConfig)
	}
	// Make sure a restored clock never reissues timestamps from the past.
	if setter, ok := r.c.cfg.Clock.(interface{ Set(uint64) }); ok {
		setter.Set(r.c.head().Header.Time)
	}
	return r.c, nil
}

// restoreOwnStream rebuilds a chain from the stream of blocks this
// process's own store wrote (Open is its one caller). A restart
// crosses no trust boundary — the stored suffix is what this node
// already validated, entry by entry, before it wrote it — so the bytes
// are checked and the owner signatures are not: every block is
// shape-checked (its body re-committed against the header's Merkle
// root), numbers, hash links, slot kinds and timestamps are checked
// link by link, and the co-signatures of deletion requests ARE verified,
// because their verdicts decide which marks are re-created: a request
// the chain once rejected must be rejected again. What this leaves
// undetected is an attacker who can rewrite the directory AND re-hash
// everything behind the rewritten block; VerifySignatures is the audit
// for that, on demand.
func restoreOwnStream(cfg Config, blocks iter.Seq2[*block.Block, error]) (*Chain, error) {
	return restoreStream(cfg, blocks, false)
}

// restoreStream drives one Restorer over a stream; ownerSigs is the
// single stage the two origins differ in. Blocks are checked and
// registered one at a time as the stream yields them, so memory is
// bounded by the live chain itself however long the stored or offered
// suffix.
//
// There is deliberately no stage running the stateless checks ahead of
// registration: one block's signatures already spread over the
// verifier's workers, registration is a twentieth of their cost, and a
// four-block window measured no gain with owner signatures on or off.
// Nor does CheckShape spread its leaf hashing over goroutines: on a
// restore of the node's own store, where it is the largest check left
// (about 40 % of a reopen on a read-sized store, 22 % leaf SHA-256),
// that too measured no consistent gain. A two-way leaf hash and a
// decode-and-check look-ahead measured none either, most likely
// because the garbage collector holds the second core (numbers for
// all in docs/ARCHITECTURE.md §4).
//
// Deletion marks are reconstructed by re-processing the deletion entries
// present in the live blocks; marks whose targets were already physically
// forgotten are (correctly) not recreated. Lifetime statistics counters
// (CutBlocks, ForgottenEntries, …) restart from zero — they describe the
// current process, not the chain's full history.
func restoreStream(cfg Config, blocks iter.Seq2[*block.Block, error], ownerSigs bool) (*Chain, error) {
	r := newRestorer(cfg, ownerSigs)
	for b, err := range blocks {
		if err != nil {
			return nil, fmt.Errorf("chain: restore: %w", err)
		}
		if err := r.Add(b); err != nil {
			return nil, err
		}
	}
	return r.Finish()
}

// verifyRestoredBlock runs the chain-state-independent half of a
// streamed block's restore: structural shape, pooled owner-signature
// verification when the blocks are not this node's own, and the
// deletion co-signature prechecks.
func (c *Chain) verifyRestoredBlock(b *block.Block, ownerSigs bool) (cosigChecks, error) {
	if err := b.CheckShape(); err != nil {
		return nil, fmt.Errorf("chain: restore block %d: %w", b.Header.Number, err)
	}
	if ownerSigs {
		if err := c.cfg.Verifier.Blocks(c.cfg.Registry, []*block.Block{b}); err != nil {
			return nil, fmt.Errorf("chain: restore: %w", err)
		}
	}
	if b.IsSummary() {
		return nil, nil
	}
	return c.precheckDeletions(b.Entries), nil
}

// registerRestoredBlock applies the order-dependent checks and state
// registration of one verified block. The chain is not yet shared, so no
// lock is held.
func (c *Chain) registerRestoredBlock(b *block.Block, prev *block.Block, checks cosigChecks) error {
	if err := c.checkLink(prev, b); err != nil {
		return fmt.Errorf("chain: restore: %w", err)
	}
	c.pushBlock(b)
	if !b.IsSummary() {
		c.processNormal(b, checks)
		return nil
	}
	// A restored summary was planned by nobody here, so its entries are
	// found by lookup; those whose merge history is gone enter the live
	// set directly as carried.
	added, moved := c.ledger.migrate(b.Header.Number, b.Carried)
	c.liveEntries += added
	c.carriedEntries += added + moved
	// Re-register the dependency edges of carried entries. A live
	// chain keeps these edges when entries migrate into a summary;
	// dropping them here would let a replayed deletion request slip
	// past a cohesion rejection it historically received (§IV-D.2).
	for _, ce := range b.Carried {
		ref := ce.Ref()
		for _, dep := range ce.Entry.DependsOn {
			if _, ok := c.ledger.byRef[dep]; ok {
				c.dependents[dep] = append(c.dependents[dep], deletion.Dependent{Ref: ref, Owner: ce.Entry.Owner})
			}
		}
	}
	return nil
}

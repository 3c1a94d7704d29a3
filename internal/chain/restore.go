package chain

import (
	"fmt"
	"iter"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/deletion"
)

// Restore rebuilds a chain from live blocks held in memory — somebody
// else's: a status-quo offer, a test fixture. The blocks must be the
// exact live suffix of a selective-deletion chain: consecutive numbers
// starting at the marker, hash-linked, with summary blocks in their
// slots, the first block being the current Genesis marker (§IV-C: the
// marker block "is a trusted anchor for the left blockchain part already
// approved by the anchor nodes"). It is RestoreStream over a slice.
func Restore(cfg Config, blocks []*block.Block) (*Chain, error) {
	return RestoreStream(cfg, func(yield func(*block.Block, error) bool) {
		for _, b := range blocks {
			if !yield(b, nil) {
				return
			}
		}
	})
}

// RestoreStream rebuilds a chain from a stream of live blocks that
// crossed a trust boundary on their way here: a peer's snapshot offer, a
// gossiped status quo, blocks a caller hands to the façade. Nothing is
// believed: on top of everything RestoreOwnStream checks, the owner
// signature of every entry — including entries carried inside summary
// blocks — is verified through the parallel verification pool, so a
// malicious offer is rejected at the offending block instead of
// poisoning later validations. VerifySignatures runs the same check
// over a chain that is already open.
func RestoreStream(cfg Config, blocks iter.Seq2[*block.Block, error]) (*Chain, error) {
	return restoreStream(cfg, blocks, true)
}

// RestoreOwnStream rebuilds a chain from the stream of blocks this
// process's own store wrote (store.Open is its one caller). A restart
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
func RestoreOwnStream(cfg Config, blocks iter.Seq2[*block.Block, error]) (*Chain, error) {
	return restoreStream(cfg, blocks, false)
}

// restoreStream is the one restore body; ownerSigs is the single stage
// the two origins differ in. Blocks are checked and registered one at a
// time as the stream yields them, so memory is bounded by the live chain
// itself however long the stored or offered suffix.
//
// There is deliberately no stage running the stateless checks ahead of
// registration: one block's signature batch already fans out across the
// verification pool, registration is a twentieth of it, and a four-block
// window measured no gain with owner signatures on or off (numbers in
// docs/ARCHITECTURE.md §4).
//
// Deletion marks are reconstructed by re-processing the deletion entries
// present in the live blocks; marks whose targets were already physically
// forgotten are (correctly) not recreated. Lifetime statistics counters
// (CutBlocks, ForgottenEntries, …) restart from zero — they describe the
// current process, not the chain's full history.
func restoreStream(cfg Config, blocks iter.Seq2[*block.Block, error], ownerSigs bool) (*Chain, error) {
	full, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	c := &Chain{
		cfg:         full,
		auth:        newAuthorizer(full),
		index:       make(map[block.Ref]Location),
		dependents:  make(map[block.Ref][]deletion.Dependent),
		marks:       make(map[block.Ref]Mark),
		ledger:      newCarriedLedger(),
		tombIndex:   make(map[block.Ref]int),
		nextTombSeq: 1,
	}
	var prev *block.Block
	for b, err := range blocks {
		if err != nil {
			return nil, fmt.Errorf("chain: restore: %w", err)
		}
		checks, err := c.verifyRestoredBlock(b, ownerSigs)
		if err != nil {
			return nil, err
		}
		if prev == nil {
			c.marker = b.Header.Number
			if c.marker%uint64(full.SequenceLength) != 0 {
				return nil, fmt.Errorf("%w: first block %d is not sequence-aligned", ErrConfig, c.marker)
			}
		}
		if err := c.registerRestoredBlock(b, prev, checks); err != nil {
			return nil, err
		}
		prev = b
	}
	if prev == nil {
		return nil, fmt.Errorf("%w: no blocks to restore", ErrConfig)
	}
	// Make sure a restored clock never reissues timestamps from the past.
	if setter, ok := full.Clock.(interface{ Set(uint64) }); ok {
		setter.Set(c.head().Header.Time)
	}
	return c, nil
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
	// Re-register the dependency edges of carried entries. A live
	// chain keeps these edges when entries migrate into a summary;
	// dropping them here would let a replayed deletion request slip
	// past a cohesion rejection it historically received (§IV-D.2).
	for _, ce := range b.Carried {
		ref := ce.Ref()
		for _, dep := range ce.Entry.DependsOn {
			if _, ok := c.index[dep]; ok {
				c.dependents[dep] = append(c.dependents[dep], deletion.Dependent{Ref: ref, Owner: ce.Entry.Owner})
			}
		}
	}
	return nil
}

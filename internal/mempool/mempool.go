// Package mempool implements the concurrent submission pipeline in front
// of a selective-deletion chain.
//
// Related redactable-chain designs (Deuber et al., Kuperberg) treat both
// writes and deletion requests as operations flowing through a pool of
// pending operations rather than as caller-assembled blocks. Batcher is
// that flow: it coalesces entries from many concurrent producers into
// blocks — a dedicated flusher goroutine drains submissions, seals one
// block per batch through the Ledger, and resolves a Receipt per entry
// with the final reference, block number, and block hash. Each group's
// signatures queue for verification the moment it is submitted, in the
// order the flusher will take the groups, and the verifier works the
// oldest group first; a block holds the oldest queued group and the
// groups queued behind it whose verification has already ended, up to
// 256 entries. The first group still verifying heads the next block, so
// verifying it overlaps this block's seal, and a block is as large as
// what is verified, not as what is in flight. There is no timer and no
// linger. A single chain and an anchor node each write through one
// Batcher; they differ only in the Ledger behind it.
//
// Entries submitted in one Submit call are kept in the same sealed block,
// so multi-entry invariants ("these records appear together") survive
// coalescing with other producers.
package mempool

import (
	"errors"

	"github.com/seldel/seldel/internal/block"
)

// ErrClosed is returned by Submit after the pipeline has been closed.
var ErrClosed = errors.New("mempool: pipeline closed")

// Ledger is the slice of the chain the batcher seals through. The
// chain package implements it with an internal adapter over its
// sealing primitive.
type Ledger interface {
	// Seal builds, seals, and appends one normal block holding entries
	// (plus any due summary block, unless the ledger is a PostResolver),
	// returning the appended blocks, the batch's block first, and,
	// aligned with entries, the mark outcome of each deletion request
	// processed during the append (nil when the batch held none).
	Seal(entries []*block.Entry) ([]*block.Block, []MarkOutcome, error)
	// ValidateEntries checks candidate entries against the live chain
	// state without building a block.
	ValidateEntries(entries []*block.Entry) error
}

// PostResolver is an optional Ledger extension. The flusher calls
// AfterResolve once a sealed batch's receipts were resolved, or handed
// to Options.Durable, and before it collects the next batch. A chain
// seals the summary block its batch left due there, so the receipts of
// the batch that closes a sequence do not wait for the summary.
type PostResolver interface {
	AfterResolve()
}

package mempool

import (
	"context"
	"errors"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/codec"
)

// errNoTicket guards against zero-value Receipts, which are not attached
// to any submission.
var errNoTicket = errors.New("mempool: receipt not issued by Submit")

// MarkOutcome reports what a sealed deletion request achieved. The
// paper tolerates invalid requests on-chain ("wrong requests … have no
// further effects", §V), so inclusion alone says nothing — the outcome
// rides on the receipt, sparing clients an IsMarked poll after sealing.
type MarkOutcome uint8

const (
	// MarkNone: the entry was not a deletion request.
	MarkNone MarkOutcome = iota
	// MarkApproved: the request passed authorization and its target now
	// carries a deletion mark (physical deletion follows at the next
	// marker shift).
	MarkApproved
	// MarkRejected: the request was included but had no effect — the
	// target is unknown, authorization failed, or cohesion vetoed it.
	MarkRejected
)

// String returns "none", "approved", or "rejected".
func (m MarkOutcome) String() string {
	switch m {
	case MarkApproved:
		return "approved"
	case MarkRejected:
		return "rejected"
	default:
		return "none"
	}
}

// Sealed is the resolution of a successful submission: where the entry
// ended up once its block was sealed and appended.
type Sealed struct {
	// Ref is the entry's stable reference (origin block, entry number);
	// it survives migration into summary blocks.
	Ref block.Ref
	// Block is the number of the sealed block holding the entry.
	Block uint64
	// BlockHash is the hash of that block.
	BlockHash codec.Hash
	// Mark is the deletion-request outcome: MarkApproved or MarkRejected
	// for deletion entries, MarkNone otherwise.
	Mark MarkOutcome
}

// Receipt tracks one submitted entry through the pipeline. It resolves
// exactly once: either to a Sealed result or to a per-entry error (e.g.
// a validation failure that removed the entry from its batch). Receipts
// are small values and safe to copy and share across goroutines.
type Receipt struct {
	t *ticket
}

// ticket is the shared resolution state behind a Receipt. The result
// fields are written exactly once before done is closed; readers access
// them only after observing the close, which establishes the necessary
// happens-before edge.
type ticket struct {
	done   chan struct{}
	sealed Sealed
	err    error
}

func newTicket() *ticket { return &ticket{done: make(chan struct{})} }

func (t *ticket) resolve(s Sealed) {
	t.sealed = s
	close(t.done)
}

func (t *ticket) fail(err error) {
	t.err = err
	close(t.done)
}

// Done returns a channel that is closed once the receipt has resolved.
func (r Receipt) Done() <-chan struct{} {
	if r.t == nil {
		closed := make(chan struct{})
		close(closed)
		return closed
	}
	return r.t.done
}

// Wait blocks until the receipt resolves or ctx is done, returning the
// sealed result or the first error.
func (r Receipt) Wait(ctx context.Context) (Sealed, error) {
	if r.t == nil {
		return Sealed{}, errNoTicket
	}
	select {
	case <-r.t.done:
		return r.t.sealed, r.t.err
	case <-ctx.Done():
		return Sealed{}, ctx.Err()
	}
}

package serve

import (
	"context"
	"iter"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/manifest"
	"github.com/seldel/seldel/internal/mempool"
	"github.com/seldel/seldel/internal/node"
)

// Backend is the engine surface a Server fronts. *chain.Chain and
// *node.Node both satisfy it, so the same handler set serves a single
// store or a replicating cluster member.
type Backend interface {
	// Submit enqueues signed entries into the submission pipeline,
	// returning one receipt per entry.
	Submit(ctx context.Context, entries ...*block.Entry) ([]mempool.Receipt, error)
	// EntriesAfter is the ordered seek behind GET /v1/entries: at most
	// limit live entries, ascending by reference, strictly after the
	// cursor (from the smallest live reference without one), leaving out
	// deletion-marked entries when skipMarked is set.
	EntriesAfter(after block.Ref, haveCursor bool, limit int, skipMarked bool) []chain.RefEntry
	// EntriesSeq streams every live entry with its stable reference in
	// physical order, which is NOT reference order once a truncation has
	// happened. The server does not read through it; it stays on the
	// interface for decorators written against it and as the oracle the
	// seek is tested against.
	EntriesSeq() iter.Seq2[block.Ref, *block.Entry]
	// Tombstones returns the deletion audit records, oldest first.
	Tombstones(ctx context.Context) ([]manifest.Record, error)
	// ProveDeleted is the deletion proof behind GET /v1/prove-deleted;
	// it fails with chain.ErrNotDeleted while the entry is live and with
	// chain.ErrNotFound when no tombstone covers it.
	ProveDeleted(ref block.Ref) (*chain.DeletedProof, error)
	// Stats is the chain-size and deletion-counter snapshot.
	Stats() chain.Stats
	// PipelineStats exposes the submission pipeline's backpressure
	// gauges — the admission controller's signal.
	PipelineStats() mempool.Stats
}

// Interface conformance pins: every engine shape the façade builds can
// back a Server.
var (
	_ Backend = (*chain.Chain)(nil)
	_ Backend = (*node.Node)(nil)
)

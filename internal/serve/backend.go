package serve

import (
	"context"
	"iter"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/manifest"
	"github.com/seldel/seldel/internal/mempool"
	"github.com/seldel/seldel/internal/node"
	"github.com/seldel/seldel/internal/partition"
)

// Backend is the engine surface a Server fronts. *chain.Chain,
// *partition.Chain, and *node.Node all satisfy it, so the same handler
// set serves a single store, a sharded write path, or a replicating
// cluster member.
type Backend interface {
	// Submit enqueues signed entries into the submission pipeline,
	// returning one receipt per entry.
	Submit(ctx context.Context, entries ...*block.Entry) ([]mempool.Receipt, error)
	// SubmitWait submits and blocks until every receipt resolves.
	SubmitWait(ctx context.Context, entries ...*block.Entry) ([]mempool.Sealed, error)
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
	// Stats is the chain-size and deletion-counter snapshot.
	Stats() chain.Stats
	// PipelineStats exposes the submission pipeline's backpressure
	// gauges — the admission controller's signal.
	PipelineStats() mempool.Stats
}

// DeletedProver is the optional single-chain proof surface; chains and
// nodes implement it.
type DeletedProver interface {
	ProveDeleted(ref block.Ref) (*chain.DeletedProof, error)
}

// PartitionProver is the optional partitioned proof surface; a
// partitioned chain's proofs tie into its spine, so the result type
// (and signature) differ from the single-chain form.
type PartitionProver interface {
	ProveDeleted(ctx context.Context, ref block.Ref) (*partition.Proof, error)
}

// Interface conformance pins: every engine shape the façade builds can
// back a Server.
var (
	_ Backend         = (*chain.Chain)(nil)
	_ Backend         = (*partition.Chain)(nil)
	_ Backend         = (*node.Node)(nil)
	_ DeletedProver   = (*chain.Chain)(nil)
	_ DeletedProver   = (*node.Node)(nil)
	_ PartitionProver = (*partition.Chain)(nil)
)

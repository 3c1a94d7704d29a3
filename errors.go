package seldel

import (
	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/client"
	"github.com/seldel/seldel/internal/deletion"
	"github.com/seldel/seldel/internal/mempool"
	"github.com/seldel/seldel/internal/store/segment"
)

// Sentinel errors, re-exported so applications can classify failures
// with errors.Is against this package alone, without importing
// internals. Errors surfaced through Submit receipts, chain methods,
// deletion authorization, and clients all wrap one of these.
var (
	// ErrConfig reports an invalid chain configuration (bad option
	// values, missing registry, invalid geometry).
	ErrConfig = chain.ErrConfig
	// ErrClosed is returned by Submit after the chain's submission
	// pipeline has been closed via Close.
	ErrClosed = mempool.ErrClosed
	// ErrNotFound reports a reference that does not resolve to a live
	// entry (deleted, expired, or never written).
	ErrNotFound = chain.ErrNotFound
	// ErrEntryInvalid reports a malformed or incorrectly signed entry;
	// Submit resolves the offending entry's receipt with it.
	ErrEntryInvalid = chain.ErrEntryInvalid
	// ErrDependsMissing reports an entry depending on a reference that is
	// not in the live chain.
	ErrDependsMissing = chain.ErrDependsMissing
	// ErrDependsMarked reports an entry depending on data already marked
	// for deletion (§IV-D.3).
	ErrDependsMarked = chain.ErrDependsMarked
	// ErrSummaryMismatch reports a received summary block differing from
	// the locally computed one — the fork signal of §IV-B.
	ErrSummaryMismatch = chain.ErrSummaryMismatch
	// ErrSealFailed reports a block whose consensus seal did not verify.
	ErrSealFailed = chain.ErrSealFailed
	// ErrStore reports that a block or a prune did not reach the chain's
	// store (disk full, store closed under a live chain). The batch
	// being sealed and every later Submit resolve with it, Chain.Close
	// returns it, and Node.StoreErr reports it: the store no longer
	// matches the chain and must not be trusted for a restart.
	ErrStore = chain.ErrStore
	// ErrNotNext reports a block that does not extend the current head:
	// a gap in the numbering or a broken hash link, on append and on
	// reopening a store.
	ErrNotNext = chain.ErrNotNext
	// ErrTimeRegression reports a block whose timestamp runs behind its
	// predecessor's, on append and on reopening a store.
	ErrTimeRegression = chain.ErrTimeRegression
	// ErrRootMismatch reports a block whose body does not hash to the
	// Merkle root in its header — a stored or received block was edited.
	ErrRootMismatch = block.ErrRootMismatch
	// ErrStoreCorrupt reports a segment store whose sealed segment holds
	// a record failing its length or checksum: damage no crash explains.
	ErrStoreCorrupt = segment.ErrCorrupt
	// ErrUnauthorized reports a deletion requester not authorized for the
	// target under the chain's deletion policy (§IV-D.1).
	ErrUnauthorized = deletion.ErrUnauthorized
	// ErrMissingCoSign reports a deletion lacking a required dependent
	// co-signature (§IV-D.2).
	ErrMissingCoSign = deletion.ErrMissingCoSign
	// ErrNoMajority reports that a client's queried anchors disagree on
	// the status quo (§V-B.4).
	ErrNoMajority = client.ErrNoMajority
	// ErrTimeout reports an expired client request.
	ErrTimeout = client.ErrTimeout
	// ErrBadProof reports a Merkle inclusion proof that failed to verify.
	ErrBadProof = client.ErrBadProof
	// ErrNotDeleted reports a ProveDeleted call for an entry that is
	// still live (use Lookup/Get for those).
	ErrNotDeleted = chain.ErrNotDeleted
)

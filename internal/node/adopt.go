// Status-quo adoption (§IV-C): swapping the node onto a restored chain
// and re-pointing its store. It owns the chain pointer, guarded by mu;
// an adoption also holds sealMu throughout, so no proposal runs while
// the chain is swapped.

package node

import (
	"fmt"

	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/store"
)

// adoptRestored swaps the node onto a fully restored, integrity-checked
// chain when it is strictly ahead of the local head, re-pointing the
// local store at it — the old suffix below the new marker is physically
// deleted and the shift recorded in the store's DELETIONS log, exactly
// as if this node had executed the quorum's truncations itself. Returns
// whether the adoption happened; a rejected chain is closed here.
func (n *Node) adoptRestored(restored *chain.Chain) bool {
	// sealMu excludes the proposal pipeline for the whole adoption:
	// gossip and vote appends run on this same delivery goroutine, so
	// with the flusher held off, nothing can append to either chain
	// until the store is re-pointed — the persisted suffix can have no
	// gap between Attach's backfill and its listener registration.
	n.sealMu.Lock()
	defer n.sealMu.Unlock()
	n.mu.Lock()
	if n.closed || restored.Head().Number <= n.chain.Head().Number || restored.Marker() < n.chain.Marker() {
		n.mu.Unlock()
		restored.Close()
		return false
	}
	old := n.chain
	n.chain = restored
	n.tallies = make(map[uint64]*voteState)
	n.forked = false
	n.mu.Unlock()
	// Drain the old chain first (its stage may still prune the
	// store with pre-adoption markers; the segment store rejects those
	// backwards marker moves), then re-point the store at the adopted
	// chain: Attach backfills the new live suffix, deletes everything
	// below the new marker and records the shift.
	old.Close()
	if n.store != nil {
		if err := store.Attach(restored, n.store); err != nil {
			// The node keeps serving from memory, but persistence is
			// broken: latch it on the chain like any failed write,
			// instead of silently restoring a pre-adoption
			// (quorum-deleted) suffix on the next restart.
			restored.FailStore(fmt.Errorf("attach adopted chain: %w", err))
		}
	}
	return true
}

// StoreErr reports a persistence failure the node could not surface
// through a return value: a failed store re-point during snapshot
// adoption, or a block or prune of the current chain that did not reach
// the store. Either is latched on the chain (chain.ErrStore). A non-nil
// value means the store must not be trusted for a restart.
func (n *Node) StoreErr() error {
	return n.Chain().StoreErr()
}

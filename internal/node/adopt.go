// Status-quo adoption (§IV-C): swapping the node onto a restored chain
// and re-pointing its store. It owns the chain pointer, guarded by mu;
// an adoption also holds sealMu throughout, so no proposal runs while
// the chain is swapped.

package node

import "github.com/seldel/seldel/internal/chain"

// adoptRestored swaps the node onto a fully restored, integrity-checked
// chain when it is strictly ahead of the local head, re-pointing the
// local store at it — the old suffix below the new marker is physically
// deleted and the shift recorded in the store's DELETIONS log, exactly
// as if this node had executed the quorum's truncations itself. A node
// whose store failed adopts nothing: like an append, an adoption would
// put on its chain what its store does not hold. Returns whether the
// adoption happened; a rejected chain is closed here.
func (n *Node) adoptRestored(restored *chain.Chain) bool {
	// sealMu excludes the proposal pipeline for the whole adoption:
	// gossip and vote appends run on this same delivery goroutine, so
	// with the flusher held off, nothing can append to either chain
	// until the store is re-pointed — the persisted suffix can have no
	// gap between Attach's backfill and the chain writing to it.
	n.sealMu.Lock()
	defer n.sealMu.Unlock()
	n.mu.Lock()
	if n.closed || n.chain.StoreErr() != nil ||
		restored.Head().Number <= n.chain.Head().Number || restored.Marker() < n.chain.Marker() {
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
	// below the new marker and records the shift. A failed Attach is
	// latched on the adopted chain like any failed write (StoreErr):
	// the node keeps serving reads from memory, appends nothing more,
	// and a restart does not silently restore a pre-adoption
	// (quorum-deleted) suffix.
	old.Close()
	if n.store != nil {
		_ = restored.Attach(n.store)
	}
	return true
}

// StoreErr reports a persistence failure the node could not surface
// through a return value: a failed store re-point during snapshot
// adoption, or a block or prune of the current chain that did not reach
// the store. Either is latched on the chain (chain.ErrStore). A non-nil
// value means the store must not be trusted for a restart; the chain
// then appends nothing more, and the node sends no summary vote.
func (n *Node) StoreErr() error {
	return n.Chain().StoreErr()
}

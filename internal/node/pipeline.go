// The proposal pipeline: Submit and AppendEmpty seal through
// sealProposal. It owns prop (set once by New) and sealMu, which is held
// for a whole proposal, the bounded summary-vote wait included, and is
// taken before mu, never under it.

package node

import (
	"context"
	"errors"
	"time"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/mempool"
	"github.com/seldel/seldel/internal/wire"
)

// ErrSummaryPending is returned while the quorum vote for the due
// summary block is still incomplete (e.g. votes were lost on a lossy
// network, or the node sits in a minority partition). The write that
// hit it announced the node's vote once; it is not re-sealed. Further
// announcements come from Config.VoteRetryInterval or from the caller
// retrying once the network settles.
var ErrSummaryPending = errors.New("node: summary vote pending")

// summaryWait bounds how long a proposal blocks on a due summary vote
// before reporting ErrSummaryPending. On an in-process network the vote
// settles in microseconds; the budget only matters under partitions and
// message loss, where failing fast (and letting the caller retry) beats
// stalling the flusher. It is wall-clock time, not the network's
// simulated clock: virtual time moves only inside netsim's Flush, and in
// the drills the caller blocked in the wait is the one who would call it.
const summaryWait = 25 * time.Millisecond

// warmEntries pre-verifies a submitted group while its batch is still
// assembling: entry signatures and deletion co-signatures populate the
// verified-signature cache, so the sealing flush re-checks them for
// cache hits instead of Ed25519 cost.
func (n *Node) warmEntries(entries []*block.Entry) <-chan struct{} {
	c := n.Chain()
	return c.Verifier().Warm(c.Registry(), entries)
}

// proposer adapts the node's proposal path to the batching pipeline's
// Ledger interface: sealed batches become proposed blocks.
type proposer struct{ n *Node }

// Seal implements mempool.Ledger. After a store failure the chain
// appends nothing more: the pipeline then asks ValidateEntries which
// entries to reject, and that answers with the same error for every one.
func (p proposer) Seal(entries []*block.Entry) ([]*block.Block, []mempool.MarkOutcome, error) {
	return p.n.sealProposal(entries)
}

// ValidateEntries implements mempool.Ledger. While the summary slot is
// still due, every valid entry fails with ErrSummaryPending, so a batch
// whose seal stalled on the vote fails once instead of being re-sealed.
func (p proposer) ValidateEntries(entries []*block.Entry) error {
	c := p.n.Chain()
	if err := c.ValidateEntries(entries); err != nil {
		return err
	}
	if c.NextIsSummary() {
		return ErrSummaryPending
	}
	return nil
}

// sealProposal is the node's single sealing path: the chain builds,
// seals (with the consensus engine), appends and stores a normal block
// from the batch (chain.Chain.CommitNormal), and the node gossips it and
// kicks the summary vote when the next slot is a summary slot.
// When that next slot is ALREADY a summary slot, the proposal must wait
// for the quorum vote to land the summary first; if the vote is not
// decided within summaryWait (lost votes, minority partition), the
// proposal fails with ErrSummaryPending and the batch's receipts report
// it to the callers.
func (n *Node) sealProposal(entries []*block.Entry) ([]*block.Block, []mempool.MarkOutcome, error) {
	n.sealMu.Lock()
	defer n.sealMu.Unlock()
	c := n.Chain()
	if c.NextIsSummary() {
		if !n.waitSummaryApplied(c) {
			return nil, nil, ErrSummaryPending
		}
		c = n.Chain()
	}
	b, outcomes, err := c.CommitNormal(entries)
	if err != nil {
		return nil, nil, err
	}
	if n.ep != nil {
		n.ep.Broadcast(wire.KindBlock, wire.SealEnvelope(n.key, wire.KindBlock, b.Encode()))
	}
	n.afterAppend()
	return []*block.Block{b}, outcomes, nil
}

// waitSummaryApplied announces our vote for the due summary block and
// waits, at most summaryWait, for the round to be decided. Votes are
// tallied on the network delivery goroutines, which close the round's
// decided channel. It reports whether the summary landed.
func (n *Node) waitSummaryApplied(c *chain.Chain) bool {
	n.announceSummary(c)
	n.mu.Lock()
	decided := n.talliesFor(c.NextNumber()).decided
	n.mu.Unlock()
	timer := time.NewTimer(summaryWait)
	defer timer.Stop()
	select {
	case <-decided:
	case <-timer.C:
	}
	return !c.NextIsSummary()
}

// Submit enqueues entries into the node's proposal pipeline and returns
// one Receipt per entry: the node's one write path. Entries from
// many goroutines coalesce into proposed blocks exactly like a
// single-process chain's Submit; each receipt resolves to the entry's
// stable Ref (and deletion-mark outcome) once its block is sealed and
// gossiped. Entries reach the peers inside the sealed block — a
// receipt therefore implies the entry is on the node's chain and on the
// wire to every reachable peer.
func (n *Node) Submit(ctx context.Context, entries ...*block.Entry) ([]mempool.Receipt, error) {
	n.mu.Lock()
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	return n.prop.Submit(ctx, entries...)
}

// SubmitWait submits entries and blocks until every receipt resolves,
// failing fast on the first per-entry error.
func (n *Node) SubmitWait(ctx context.Context, entries ...*block.Entry) ([]mempool.Sealed, error) {
	receipts, err := n.Submit(ctx, entries...)
	if err != nil {
		return nil, err
	}
	out := make([]mempool.Sealed, len(receipts))
	for i, r := range receipts {
		s, err := r.Wait(ctx)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// PipelineStats returns the node's proposal-pipeline counters (sealed
// batches, receipts, backpressure) merged with the chain's
// verification, compaction, and index gauges.
func (n *Node) PipelineStats() mempool.Stats {
	s := n.prop.Stats()
	cs := n.Chain().PipelineStats()
	s.Verify = cs.Verify
	s.Compaction = cs.Compaction
	s.Index = cs.Index
	return s
}

// AppendEmpty seals an empty normal block through the proposal path:
// the filler block "regularly added … if no transaction has occurred"
// so pending deletions execute (§IV-D.3), named like
// chain.Chain.AppendEmpty. Like a write, it waits briefly for a due
// summary vote and fails with ErrSummaryPending while that vote stays
// incomplete.
func (n *Node) AppendEmpty() (*block.Block, error) {
	n.mu.Lock()
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	blocks, _, err := n.sealProposal(nil)
	if err != nil {
		return nil, err
	}
	return blocks[0], nil
}

package chain

import (
	"fmt"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/codec"
	"github.com/seldel/seldel/internal/compact"
	"github.com/seldel/seldel/internal/merkle"
)

// summaryPlan is the deterministic retention decision taken when a
// summary block is created: which prefix of the chain is merged away and
// how many temporary entries expired in the process. Every honest node
// derives the identical plan from the identical chain state (§IV-B), so
// the plan never needs to be propagated.
type summaryPlan struct {
	// newMarker is the Genesis marker after the merge (unchanged when
	// nothing is merged).
	newMarker uint64
	// expired counts temporary entries dropped because their deadline
	// passed (§IV-D.4).
	expired uint64
}

// seqOf returns the sequence index containing block number n.
func (c *Chain) seqOf(n uint64) uint64 { return n / uint64(c.cfg.SequenceLength) }

// seqStart returns the first block number of sequence s.
func (c *Chain) seqStart(s uint64) uint64 { return s * uint64(c.cfg.SequenceLength) }

// retentionPlanLocked decides how far the next summary at block num
// shrinks the chain: the new Genesis marker per Eq. 1 iterated under the
// configured policy, bounded by the §IV-D.3 floors.
func (c *Chain) retentionPlanLocked(num, headTime uint64) summaryPlan {
	currentSeq := c.seqOf(num)
	firstSeq := c.seqOf(c.marker)

	// Decide how far to shrink (Eq. 1, iterated per the configured
	// policy), measured as the first sequence to KEEP.
	keepFrom := firstSeq
	if c.limitExceeded(firstSeq, num) {
		switch c.cfg.Shrink {
		case ShrinkAllButNewest:
			keepFrom = currentSeq
		default: // ShrinkMinimal
			for keepFrom < currentSeq && c.limitExceeded(keepFrom, num) {
				keepFrom++
			}
		}
	}
	// Floors (§IV-D.3): never shrink below MinBlocks live blocks or below
	// MinTimeSpan of covered logical time.
	for keepFrom > firstSeq && c.violatesFloors(keepFrom, num, headTime) {
		keepFrom--
	}

	plan := summaryPlan{newMarker: c.marker}
	if keepFrom > firstSeq {
		plan.newMarker = c.seqStart(keepFrom)
	}
	return plan
}

// plannedSummary is the chain's last plan: the summary block Σ and its
// retention decision, computed on head. Every input of the plan changes
// only by appending a block, which replaces the head (InjectMarkForTest
// is the one exception and clears the plan), so while head is still the
// head the plan is still Σ.
type plannedSummary struct {
	head  *block.Block
	block *block.Block
	plan  summaryPlan
	// cands are the ledger candidates Σ carries and leaves their Merkle
	// leaves, both aligned with block.Carried: the append that consumes
	// the plan re-homes each candidate and memoizes its leaf from here.
	cands  []*candidate
	leaves []codec.Hash
	// hashed counts the leaves this plan hashed rather than took from a
	// candidate's memo.
	hashed int
	// visited counts the ledger candidates the plan looked at: those the
	// cut blocks hold, carried or not (carriedLedger.walkCut).
	visited int
}

// planSummaryLocked returns the plan of Σ for the current head,
// computing it once per head: a node builds Σ to vote, again when the
// vote lands and once more to append it, and a single chain builds it to
// append and again to check it. Callers must hold the chain lock (read
// or write) and must have verified that the next slot is a summary slot.
// Under the read lock two callers may compute at once; they compute the
// same block and the last store wins.
func (c *Chain) planSummaryLocked() *plannedSummary {
	if p := c.planned.Load(); p != nil && p.head == c.head() {
		return p
	}
	p := c.computeSummaryLocked()
	c.planned.Store(p)
	return p
}

// isPlanned reports whether b is the very block the chain planned as Σ.
// Such a block was assembled from ledger entries, each shape-checked
// when its block was appended, so it needs no shape check of its own.
func (c *Chain) isPlanned(b *block.Block) bool {
	p := c.planned.Load()
	return p != nil && p.block == b
}

// computeSummaryLocked computes the next summary block Σ and its
// retention plan from the carried-entry ledger: instead of rescanning
// every merged block (and every entry already carried inside a previous
// summary, the dominant cost as chains grow), it walks only the
// candidates the cut blocks hold — the held lists of the cut summaries
// and the cut normal blocks' range of the origin-ordered list — so its
// cost is what the cut holds, not everything carried. Σ's carried list,
// its candidates and its leaves are each allocated once, sized by what
// the cut holds before the walk visits any of it. Only entries
// carried for the first time have their leaf hashed, fanned out across
// the verifier; every other leaf is its candidate's memo. The result is
// bit-identical to planSummaryReferenceLocked, which the golden tests
// enforce. Callers must hold the chain lock (read or write) and must
// have verified that the next slot is a summary slot; the method never
// mutates chain state.
func (c *Chain) computeSummaryLocked() *plannedSummary {
	head := c.head()
	num := head.Header.Number + 1
	p := &plannedSummary{head: head, plan: c.retentionPlanLocked(num, head.Header.Time)}

	var carried []block.CarriedEntry
	var missing []int
	if p.plan.newMarker > c.marker {
		checkExpiry := c.ledger.expiryPossible(head.Header.Time, num)
		p.visited = c.ledger.walkCut(c.marker, p.plan.newMarker, func(n int) {
			carried = make([]block.CarriedEntry, 0, n)
			p.cands = make([]*candidate, 0, n)
			p.leaves = make([]codec.Hash, 0, n)
		}, func(cand *candidate) {
			if cand.marked {
				return
			}
			if checkExpiry && cand.ce.Entry.ExpiredAt(head.Header.Time, num) {
				p.plan.expired++
				return
			}
			if cand.leaf.IsZero() {
				missing = append(missing, len(carried))
			}
			carried = append(carried, cand.ce)
			p.cands = append(p.cands, cand)
			p.leaves = append(p.leaves, cand.leaf)
		})
	}
	c.cfg.Verifier.Each(len(missing), func(k int) {
		i := missing[k]
		p.leaves[i] = block.CarriedLeaf(carried[i])
	})
	p.hashed = len(missing)

	var seqRef *block.SequenceRef
	if c.cfg.RedundancyReference {
		seqRef = c.middleSequenceRef(c.seqOf(p.plan.newMarker), c.seqOf(num))
	}
	p.block = block.NewSummaryFromLeaves(num, head.Header.Time, head.Hash(), carried, p.leaves, seqRef)
	return p
}

// rehomeLocked moves the entries Σ carries into b, the summary block
// just appended from plan p. b is the planned block itself or a copy
// with its hash, so either way its carried list is p.cands position for
// position: each candidate is re-homed in place, without a lookup, and
// keeps its leaf from the plan. A copy's own entries replace the planned
// ones, so what Σ replaced becomes collectable. p.cands becomes b's held
// list.
func (c *Chain) rehomeLocked(b *block.Block, p *plannedSummary) {
	num, copied := b.Header.Number, b != p.block
	c.ledger.held[num] = p.cands
	for i, cand := range p.cands {
		if !cand.carried() {
			c.carriedEntries++
		}
		cand.holder, cand.pos, cand.leaf = num, uint32(i), p.leaves[i]
		if copied {
			cand.ce = b.Carried[i]
		}
	}
}

// limitExceeded reports whether the configured MaxBlocks/MaxSequences
// limit is exceeded for a chain whose first kept sequence is keepFrom and
// whose newest block (the summary being created) is num.
func (c *Chain) limitExceeded(keepFrom, num uint64) bool {
	liveLen := num - c.seqStart(keepFrom) + 1
	if c.cfg.MaxBlocks > 0 && liveLen > uint64(c.cfg.MaxBlocks) {
		return true
	}
	if c.cfg.MaxSequences > 0 {
		seqCount := c.seqOf(num) - keepFrom + 1
		if seqCount > uint64(c.cfg.MaxSequences) {
			return true
		}
	}
	return false
}

// violatesFloors reports whether keeping only sequences ≥ keepFrom would
// violate the MinBlocks or MinTimeSpan floor.
func (c *Chain) violatesFloors(keepFrom, num, summaryTime uint64) bool {
	start := c.seqStart(keepFrom)
	liveLen := num - start + 1
	if c.cfg.MinBlocks > 0 && liveLen < uint64(c.cfg.MinBlocks) {
		return true
	}
	if c.cfg.MinTimeSpan > 0 {
		first, ok := c.blockAt(start)
		if ok && summaryTime-first.Header.Time < c.cfg.MinTimeSpan {
			return true
		}
	}
	return false
}

// middleSequenceRef builds the Fig. 9 redundancy reference: the Merkle
// root over the block hashes of the middle live sequence ω_{lβ/2}. Nil
// when fewer than two complete sequences remain.
func (c *Chain) middleSequenceRef(firstLiveSeq, currentSeq uint64) *block.SequenceRef {
	if currentSeq <= firstLiveSeq {
		return nil
	}
	mid := firstLiveSeq + (currentSeq-firstLiveSeq)/2
	if mid >= currentSeq { // only the in-progress sequence remains
		return nil
	}
	start := c.seqStart(mid)
	end := c.seqStart(mid+1) - 1
	hashes := make([]codec.Hash, 0, c.cfg.SequenceLength)
	for n := start; n <= end; n++ {
		b, ok := c.blockAt(n)
		if !ok {
			return nil
		}
		hashes = append(hashes, b.Hash())
	}
	return &block.SequenceRef{
		FirstBlock: start,
		LastBlock:  end,
		Root:       merkle.RootFromHashes(hashes),
	}
}

// BuildSummary computes the next summary block Σ from local state. Every
// honest node produces a bit-identical block (§IV-B). The block is not
// appended; call AppendBlock with it. Repeated calls on one head return
// the same *Block, which AppendBlock recognizes and does not re-check;
// callers must not modify it.
func (c *Chain) BuildSummary() (*block.Block, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	next := c.head().Header.Number + 1
	if !c.isSummarySlot(next) {
		return nil, fmt.Errorf("%w: block %d is not a summary slot", ErrWrongSlot, next)
	}
	return c.planSummaryLocked().block, nil
}

// applyPlanLocked executes the LOGICAL side of the retention plan after
// its summary block was appended: shift the Genesis marker, drop the cut
// prefix from the live view, and sweep the ledger and the mark set —
// everything later validations and summary plans depend on (§IV-C: "the
// old sequence can be cut off and deleted").
// The physical side — releasing the cut blocks' memory, sweeping dead
// dependency edges, pruning persistent stores — is described by the
// returned compact.Event and executed by the background compactor off
// the append path. Returns nil when nothing was cut.
func (c *Chain) applyPlanLocked(plan summaryPlan) *compact.Event {
	c.stats.ExpiredEntries += plan.expired
	if plan.newMarker == c.marker {
		return nil
	}
	old := c.marker
	cut := int(plan.newMarker - old)
	// Alias the cut prefix before the re-slice: the deletion record
	// below must resolve entry bytes and request co-signatures from
	// blocks that are about to leave the live view — after the cut they
	// are unreachable by design, which is exactly why the record is
	// built here and nowhere else.
	cutBlocks := c.blocks[:cut]
	var cutBytes int64
	for _, b := range cutBlocks {
		cutBytes += int64(b.EncodedSize())
	}
	c.liveBytes -= cutBytes
	c.stats.CutBlocks += uint64(cut)
	// Cheap re-slice only: the compactor copies the tail into a fresh
	// backing array so the cut blocks become collectable without the
	// append path paying for it.
	c.blocks = c.blocks[cut:]
	c.marker = plan.newMarker

	// Sweep the ledger: entries whose holder was cut are physically gone.
	// A marked one is executed, its mark becoming a tombstone; any other
	// is an expired temporary the merge dropped. (Marked entries left the
	// live counters when their mark was approved, so only the expired
	// ones are decremented here.) The sweep must stay logical and
	// synchronous: a deferred one would let the NEXT summary plan carry
	// entries whose holder blocks were already cut.
	c.ledger.prune(c.marker, func(cand *candidate) {
		if cand.marked {
			ref := cand.ce.Ref()
			c.tombstoneLocked(c.marks[ref], cand.ce.Entry, cutBlocks, old)
			delete(c.marks, ref)
			c.stats.ForgottenEntries++
			return
		}
		c.liveEntries--
		if cand.carried() {
			c.carriedEntries--
		}
	})
	ev := &compact.Event{
		OldMarker: old,
		NewMarker: c.marker,
		Blocks:    uint64(cut),
		Bytes:     cutBytes,
	}
	ev.Record = c.sealDeletionRecordLocked(old, cutBlocks)
	return ev
}

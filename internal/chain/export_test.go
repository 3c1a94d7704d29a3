package chain

import "github.com/seldel/seldel/internal/block"

// BuildNormalForTest assembles, without appending, the normal block
// CommitNormal would seal from entries.
func (c *Chain) BuildNormalForTest(entries []*block.Entry) (*block.Block, error) {
	return c.buildNormal(entries)
}

// PlanVisitsForTest plans the summary block due next, as BuildSummary
// does, and reports how many ledger candidates the plan looked at, how
// many the blocks it cuts hold, how many an origin-ordered walk up to
// the new marker would look at, and how many entries Σ carries.
func (c *Chain) PlanVisitsForTest() (visited, cutHolds, prefix, carried int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	p := c.planSummaryLocked()
	if p.plan.newMarker == c.marker {
		return p.visited, 0, 0, len(p.block.Carried)
	}
	for _, cand := range c.ledger.ordered {
		if cand.holder < c.marker {
			continue // pruned by an earlier cut, not yet compacted away
		}
		if cand.holder < p.plan.newMarker {
			cutHolds++
		}
		if cand.ce.OriginBlock < p.plan.newMarker {
			prefix++
		}
	}
	return p.visited, cutHolds, prefix, len(p.block.Carried)
}

// PlanListsForTest plans the summary block due next afresh, as
// BuildSummary does on a new head, and reports how many ledger
// candidates the plan looked at, how many entries Σ carries, and the
// capacities of the plan's three lists: Σ's carried entries, their
// candidates and their leaves.
func (c *Chain) PlanListsForTest() (visited, carried int, caps [3]int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	p := c.computeSummaryLocked()
	return p.visited, len(p.block.Carried), [3]int{cap(p.block.Carried), cap(p.cands), cap(p.leaves)}
}

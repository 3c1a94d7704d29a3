package chain

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
		if cand.holder < p.plan.newMarker {
			cutHolds++
		}
		if cand.ce.OriginBlock < p.plan.newMarker {
			prefix++
		}
	}
	return p.visited, cutHolds, prefix, len(p.block.Carried)
}

package chain

import (
	"sort"

	"github.com/seldel/seldel/internal/block"
)

// planSummaryReferenceLocked is the naive summary planner retained as
// the executable specification of computeSummaryLocked: it rescans every
// merged block — and every entry already carried inside a previous
// summary — at each summary slot. The incremental planner must produce
// a bit-identical block for identical chain state; the golden tests
// (summary_golden_test.go) assert that across every retention scenario.
// Callers must hold the chain lock (read or write) and must have
// verified that the next slot is a summary slot.
func (c *Chain) planSummaryReferenceLocked() (*block.Block, summaryPlan) {
	head := c.head()
	num := head.Header.Number + 1
	currentSeq := c.seqOf(num)

	plan := c.retentionPlanLocked(num, head.Header.Time)

	// Copy the content of the merged prefix into the new summary block
	// (Fig. 4): original block number, timestamp, and entry number are
	// preserved; deletion entries, marked entries, and expired temporary
	// entries are not copied (§IV-C, §IV-D).
	var carried []block.CarriedEntry
	for _, b := range c.blocks {
		if b.Header.Number >= plan.newMarker {
			break
		}
		if b.IsSummary() {
			for _, ce := range b.Carried {
				if _, marked := c.marks[ce.Ref()]; marked {
					continue
				}
				if ce.Entry.ExpiredAt(head.Header.Time, num) {
					plan.expired++
					continue
				}
				carried = append(carried, ce)
			}
			continue
		}
		for i, e := range b.Entries {
			if e.Kind == block.KindDeletion {
				// §IV-D.3: deletion requests are never copied forward.
				continue
			}
			ref := block.Ref{Block: b.Header.Number, Entry: uint32(i)}
			if _, marked := c.marks[ref]; marked {
				continue
			}
			if e.ExpiredAt(head.Header.Time, num) {
				plan.expired++
				continue
			}
			carried = append(carried, block.CarriedEntry{
				OriginBlock: b.Header.Number,
				OriginTime:  b.Header.Time,
				EntryNumber: uint32(i),
				Entry:       e,
			})
		}
	}

	// Fig. 4 orders the summary data part by origin block and entry
	// number; sorting also keeps the layout stable as entries migrate
	// through multiple summary generations.
	sort.Slice(carried, func(i, j int) bool {
		if carried[i].OriginBlock != carried[j].OriginBlock {
			return carried[i].OriginBlock < carried[j].OriginBlock
		}
		return carried[i].EntryNumber < carried[j].EntryNumber
	})

	var seqRef *block.SequenceRef
	if c.cfg.RedundancyReference {
		seqRef = c.middleSequenceRef(c.seqOf(plan.newMarker), currentSeq)
	}

	return block.NewSummary(num, head.Header.Time, head.Hash(), carried, seqRef), plan
}

package chain

import (
	"container/heap"

	"github.com/seldel/seldel/internal/block"
)

// This file maintains the carried-entry ledger: a running, origin-ordered
// view of every live data entry as the CarriedEntry it would become in
// the next summary block. The naive planner (summary_reference.go)
// rescans every merged block and every previously carried entry at each
// summary slot; the ledger keeps that list materialized and updated on
// append, mark, and truncate, so computeSummaryLocked assembles Σ by
// copying a prefix — O(carried output) with no per-slot rescans — and
// Stats() reads live/carried counters in O(1).
//
// Ordering invariant: `ordered` is sorted by (OriginBlock, EntryNumber).
// Live appends preserve it naturally (origins only grow, and entries
// migrating into a summary keep their origin coordinates); restoring a
// persisted chain can interleave origins, which insertBatch repairs with
// a linear merge.

// candidate is one live data entry viewed as a future summary carry.
type candidate struct {
	// ce is the exact CarriedEntry the next summary would hold. For an
	// entry still in its origin block this is pre-built at append time;
	// after a migration it is re-pointed at the live summary's copy.
	ce block.CarriedEntry
	// holder is the number of the block currently holding the entry.
	holder uint64
	// marked mirrors the deletion-mark set for O(1) skipping during
	// plan assembly.
	marked bool
}

// carriedLedger is the incremental summary-planning state.
type carriedLedger struct {
	ordered []*candidate
	byRef   map[block.Ref]*candidate
	// expireTime / expireBlock are min-heaps over the pending expiry
	// deadlines of temporary entries (§IV-D.4). Planning peeks them to
	// skip per-entry expiry checks entirely when no deadline has passed
	// — the common case for chains without temporaries. Items are
	// removed lazily when their entry leaves the ledger.
	expireTime  deadlineHeap
	expireBlock deadlineHeap
}

func newCarriedLedger() carriedLedger {
	return carriedLedger{byRef: make(map[block.Ref]*candidate)}
}

// add registers a fresh data entry from a normal block.
func (l *carriedLedger) add(ref block.Ref, ce block.CarriedEntry) {
	cand := &candidate{ce: ce, holder: ce.OriginBlock}
	l.ordered = append(l.ordered, cand)
	l.byRef[ref] = cand
	l.pushDeadlines(ref, ce.Entry)
}

func (l *carriedLedger) pushDeadlines(ref block.Ref, e *block.Entry) {
	if e.ExpireTime != 0 {
		heap.Push(&l.expireTime, deadlineItem{deadline: e.ExpireTime, ref: ref})
	}
	if e.ExpireBlock != 0 {
		heap.Push(&l.expireBlock, deadlineItem{deadline: e.ExpireBlock, ref: ref})
	}
}

// migrate records that an appended summary block now holds the carried
// entries. Known refs are re-homed (and re-pointed at the summary's own
// copy, so entries of cut blocks become collectable); unknown refs —
// which occur only when rebuilding from persisted blocks whose merge
// history is gone — are inserted, preserving the ordering invariant.
func (l *carriedLedger) migrate(summaryNum uint64, carried []block.CarriedEntry) {
	var fresh []*candidate
	for i := range carried {
		ce := carried[i]
		ref := ce.Ref()
		if cand, ok := l.byRef[ref]; ok {
			cand.ce = ce
			cand.holder = summaryNum
			continue
		}
		cand := &candidate{ce: ce, holder: summaryNum}
		l.byRef[ref] = cand
		l.pushDeadlines(ref, ce.Entry)
		fresh = append(fresh, cand)
	}
	if len(fresh) > 0 {
		l.insertBatch(fresh)
	}
}

// insertBatch adds candidates (themselves origin-ordered) into ordered.
// The fast path appends; when origins interleave with existing ones (a
// restored chain holding several non-empty summaries), a linear merge
// restores sortedness.
func (l *carriedLedger) insertBatch(fresh []*candidate) {
	if n := len(l.ordered); n == 0 || candidateLess(l.ordered[n-1], fresh[0]) {
		l.ordered = append(l.ordered, fresh...)
		return
	}
	merged := make([]*candidate, 0, len(l.ordered)+len(fresh))
	i, j := 0, 0
	for i < len(l.ordered) && j < len(fresh) {
		if candidateLess(l.ordered[i], fresh[j]) {
			merged = append(merged, l.ordered[i])
			i++
		} else {
			merged = append(merged, fresh[j])
			j++
		}
	}
	merged = append(merged, l.ordered[i:]...)
	merged = append(merged, fresh[j:]...)
	l.ordered = merged
}

func candidateLess(a, b *candidate) bool {
	if a.ce.OriginBlock != b.ce.OriginBlock {
		return a.ce.OriginBlock < b.ce.OriginBlock
	}
	return a.ce.EntryNumber < b.ce.EntryNumber
}

// mark flags ref's candidate as deletion-marked. Reports whether a
// candidate existed.
func (l *carriedLedger) mark(ref block.Ref) bool {
	cand, ok := l.byRef[ref]
	if !ok {
		return false
	}
	cand.marked = true
	return true
}

// prune drops every candidate whose holder block was cut by a marker
// shift (marked entries now physically forgotten, expired temporaries
// dropped) and lazily clears dead expiry-heap items.
func (l *carriedLedger) prune(newMarker uint64) {
	kept := l.ordered[:0]
	for _, cand := range l.ordered {
		if cand.holder < newMarker {
			delete(l.byRef, cand.ce.Ref())
			continue
		}
		kept = append(kept, cand)
	}
	// Release the tail so dropped candidates become collectable.
	for i := len(kept); i < len(l.ordered); i++ {
		l.ordered[i] = nil
	}
	l.ordered = kept
	l.dropDeadHeapItems(&l.expireTime)
	l.dropDeadHeapItems(&l.expireBlock)
}

// dropDeadHeapItems pops heap tops whose entries left the ledger.
func (l *carriedLedger) dropDeadHeapItems(h *deadlineHeap) {
	for h.Len() > 0 {
		if _, alive := l.byRef[(*h)[0].ref]; alive {
			return
		}
		heap.Pop(h)
	}
}

// expiryPossible reports whether any pending deadline has passed at the
// given logical time and block number — the gate for per-entry expiry
// checks during plan assembly. Dead heap tops can only make this
// spuriously true (falling back to exact per-entry checks), never
// falsely false, because live deadlines are always present.
func (l *carriedLedger) expiryPossible(now, blockNum uint64) bool {
	if l.expireTime.Len() > 0 && l.expireTime[0].deadline <= now {
		return true
	}
	if l.expireBlock.Len() > 0 && l.expireBlock[0].deadline <= blockNum {
		return true
	}
	return false
}

// deadlineItem is one pending expiry deadline.
type deadlineItem struct {
	deadline uint64
	ref      block.Ref
}

// deadlineHeap is a min-heap over deadlines (container/heap).
type deadlineHeap []deadlineItem

func (h deadlineHeap) Len() int           { return len(h) }
func (h deadlineHeap) Less(i, j int) bool { return h[i].deadline < h[j].deadline }
func (h deadlineHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *deadlineHeap) Push(x any)        { *h = append(*h, x.(deadlineItem)) }
func (h *deadlineHeap) Pop() any {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

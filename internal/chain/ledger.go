package chain

import (
	"container/heap"
	"sort"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/codec"
)

// This file maintains the carried-entry ledger, the chain's one entry
// index: every live data entry, keyed by its stable Ref, viewed as the
// CarriedEntry it would become in the next summary block. byRef answers
// where an entry lives (Lookup, dependency rules); the
// origin-ordered list, together with each live summary's held list,
// answers what the next Σ carries. The naive planner
// (summary_reference_test.go) rescans every merged block and every
// previously carried entry at each summary slot; the ledger keeps both
// materialized and updated on append, mark, and truncate, so
// computeSummaryLocked assembles Σ from the candidates the cut blocks
// hold and no others — O(what the cut holds), not O(everything carried)
// — and Stats() reads live/carried counters in O(1).
//
// Re-carrying an entry costs no lookup and no hash. The append that
// consumes a plan re-homes the plan's own candidates in place
// (Chain.rehomeLocked); a cut asks the ledger, not the cut blocks, which
// entries died (prune); and each candidate keeps its Merkle leaf from the
// first Σ that carried it. The memo is sound because appended entries
// are immutable — block hashes already rely on that — and a carried entry
// keeps its origin coordinates, so it encodes to the same bytes for its
// whole life.
//
// Ordering invariant: `ordered` is sorted by (OriginBlock, EntryNumber).
// Live appends preserve it naturally (origins only grow, and entries
// migrating into a summary keep their origin coordinates); restoring a
// persisted chain can interleave origins, which insertBatch repairs with
// a linear merge. Each held list is in its summary's Carried order, which
// is the same order.
//
// Cut invariant: an entry still in its origin block has origin ≥ the
// Genesis marker, and every other entry is in the held list of the live
// summary holding it. So the candidates a cut to newMarker merges are the
// held lists of the summaries below newMarker plus the contiguous range
// of `ordered` with origin in [marker, newMarker) (walkCut).

// candidate is one live data entry viewed as a future summary carry.
type candidate struct {
	// ce is the exact CarriedEntry the next summary would hold. For an
	// entry still in its origin block this is pre-built at append time;
	// once carried it is the holder's own copy.
	ce block.CarriedEntry
	// leaf memoizes block.CarriedLeaf(ce); zero until the first summary
	// carrying the entry is appended. Only that append writes it, under
	// the write lock; planners, under the read lock, only read it.
	leaf codec.Hash
	// holder is the number of the block currently holding the entry.
	holder uint64
	// pos is the entry's position in its holder: its index in Entries
	// while in its origin block, in Carried once in a summary.
	pos uint32
	// marked mirrors the deletion-mark set for O(1) skipping during
	// plan assembly.
	marked bool
}

// carried reports whether the entry lives inside a summary block.
func (cd *candidate) carried() bool { return cd.holder != cd.ce.OriginBlock }

// location derives where the entry lives from its holder and position.
func (cd *candidate) location() Location {
	return Location{Block: cd.holder, Index: int(cd.pos), Carried: cd.carried()}
}

// carriedLedger is the entry index and incremental summary-planning
// state.
type carriedLedger struct {
	ordered []*candidate
	byRef   map[block.Ref]*candidate
	// held maps each live summary block's number to the candidates it
	// holds, aligned with its Carried list: an append sets it from the
	// plan (Chain.rehomeLocked), a restore from the migrated entries, and
	// prune drops the lists of cut summaries — the only lists whose
	// candidates a later Σ has re-homed.
	held map[uint64][]*candidate
	// peak is the high-water size of byRef since its last rebuild, and
	// rebuilds counts those rebuilds (PipelineStats gauges). Go maps never
	// release their buckets, so after a large cut the map can pin an
	// arbitrary multiple of its live size; see maybeShrink.
	peak     int
	rebuilds uint64
	// expireTime / expireBlock are min-heaps over the pending expiry
	// deadlines of temporary entries (§IV-D.4). Planning peeks them to
	// skip per-entry expiry checks entirely when no deadline has passed
	// — the common case for chains without temporaries. Items are
	// removed lazily when their entry leaves the ledger.
	expireTime  deadlineHeap
	expireBlock deadlineHeap
}

func newCarriedLedger() carriedLedger {
	return carriedLedger{byRef: make(map[block.Ref]*candidate), held: make(map[uint64][]*candidate)}
}

// add registers a fresh data entry from a normal block.
func (l *carriedLedger) add(ce block.CarriedEntry) {
	cand := &candidate{ce: ce, holder: ce.OriginBlock, pos: ce.EntryNumber}
	l.ordered = append(l.ordered, cand)
	l.index(cand)
}

// index enters a new candidate into byRef and its deadlines into the
// expiry heaps.
func (l *carriedLedger) index(cand *candidate) {
	ref, e := cand.ce.Ref(), cand.ce.Entry
	l.byRef[ref] = cand
	l.peak = max(l.peak, len(l.byRef))
	if e.ExpireTime != 0 {
		heap.Push(&l.expireTime, deadlineItem{deadline: e.ExpireTime, ref: ref})
	}
	if e.ExpireBlock != 0 {
		heap.Push(&l.expireBlock, deadlineItem{deadline: e.ExpireBlock, ref: ref})
	}
}

// migrate records that a restored summary block holds the carried
// entries. Known refs are re-homed by lookup; unknown refs — which occur
// only when rebuilding from persisted blocks whose merge history is gone
// — are inserted, preserving the ordering invariant. It reports how many
// entries were new and how many left their origin block, for the live
// counters. A live append never comes here: it re-homes its plan's
// candidates directly (Chain.rehomeLocked).
func (l *carriedLedger) migrate(summaryNum uint64, carried []block.CarriedEntry) (added, moved int) {
	var fresh []*candidate
	held := make([]*candidate, len(carried))
	for i, ce := range carried {
		if cand, ok := l.byRef[ce.Ref()]; ok {
			if !cand.carried() {
				moved++
			}
			cand.ce, cand.holder, cand.pos = ce, summaryNum, uint32(i)
			held[i] = cand
			continue
		}
		cand := &candidate{ce: ce, holder: summaryNum, pos: uint32(i)}
		l.index(cand)
		fresh = append(fresh, cand)
		held[i] = cand
	}
	l.held[summaryNum] = held
	if len(fresh) > 0 {
		l.insertBatch(fresh)
	}
	return len(fresh), moved
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

// prune drops every candidate whose holder block was cut by a marker
// shift, handing each to drop first (a marked entry is now physically
// forgotten, any other is an expired temporary the merge left behind),
// and lazily clears dead expiry-heap items.
func (l *carriedLedger) prune(newMarker uint64, drop func(*candidate)) {
	kept := l.ordered[:0]
	for _, cand := range l.ordered {
		if cand.holder < newMarker {
			delete(l.byRef, cand.ce.Ref())
			drop(cand)
			continue
		}
		kept = append(kept, cand)
	}
	// Release the tail so dropped candidates become collectable.
	for i := len(kept); i < len(l.ordered); i++ {
		l.ordered[i] = nil
	}
	l.ordered = kept
	for num := range l.held {
		if num < newMarker {
			delete(l.held, num)
		}
	}
	l.dropDeadHeapItems(&l.expireTime)
	l.dropDeadHeapItems(&l.expireBlock)
}

// walkCut hands visit, in (OriginBlock, EntryNumber) order, every
// candidate held by a block in [marker, newMarker) — the blocks a cut to
// newMarker merges away — and reports how many candidates it looked at.
// Those are the held lists of the cut summaries and the range of
// `ordered` whose origin is a cut normal block (the cut invariant), each
// already sorted, so the walk merges their heads: one list and the range
// under ShrinkMinimal, at most one list per cut sequence otherwise.
// Candidates whose holder is not the block they are listed under are
// passed over; the cut invariant leaves none, but a restore replaying
// cut blocks could. Before the first visit it calls size with the number
// it will look at, the bound on what visit can collect, so the caller
// sizes its lists once.
func (l *carriedLedger) walkCut(marker, newMarker uint64, size func(n int), visit func(*candidate)) (visited int) {
	type run struct {
		cands []*candidate
		// holder is the summary the run's candidates must still be held
		// by; own marks the normal blocks' range, whose candidates must
		// still be in their origin block.
		holder uint64
		own    bool
	}
	var runs []run
	total := 0
	for num, cands := range l.held {
		if num < newMarker && len(cands) > 0 {
			runs = append(runs, run{cands: cands, holder: num})
			total += len(cands)
		}
	}
	lo := sort.Search(len(l.ordered), func(i int) bool { return l.ordered[i].ce.OriginBlock >= marker })
	hi := lo + sort.Search(len(l.ordered)-lo, func(i int) bool { return l.ordered[lo+i].ce.OriginBlock >= newMarker })
	if lo < hi {
		runs = append(runs, run{cands: l.ordered[lo:hi], own: true})
		total += hi - lo
	}
	size(total)
	for {
		best := -1
		for i := range runs {
			if len(runs[i].cands) > 0 && (best < 0 || candidateLess(runs[i].cands[0], runs[best].cands[0])) {
				best = i
			}
		}
		if best < 0 {
			return visited
		}
		r := &runs[best]
		cand := r.cands[0]
		r.cands = r.cands[1:]
		visited++
		if r.own && !cand.carried() || !r.own && cand.holder == r.holder {
			visit(cand)
		}
	}
}

// indexShrinkMinPeak is the smallest index high-water mark at which a
// shrink rebuild is considered: below it the pinned buckets are noise
// and a rebuild would just churn.
const indexShrinkMinPeak = 1024

// indexShrinkFactor triggers a rebuild when live entries fall below
// peak/indexShrinkFactor — i.e. at least 75% of the map's bucket
// capacity is dead weight.
const indexShrinkFactor = 4

// maybeShrink rebuilds byRef into a right-sized map when a cut left it
// mostly empty. The compactor calls it under the chain lock: the rebuild
// is O(live), off the append path, and invisible to readers.
func (l *carriedLedger) maybeShrink() {
	if l.peak < indexShrinkMinPeak || len(l.byRef)*indexShrinkFactor >= l.peak {
		return
	}
	fresh := make(map[block.Ref]*candidate, len(l.ordered))
	for _, cand := range l.ordered {
		fresh[cand.ce.Ref()] = cand
	}
	l.byRef = fresh
	l.peak = len(fresh)
	l.rebuilds++
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

package chain

import (
	"sort"

	"github.com/seldel/seldel/internal/block"
)

// RefEntry pairs a live entry with its stable reference.
type RefEntry struct {
	Ref   block.Ref
	Entry *block.Entry
}

// EntriesAfter is the ordered seek of the read path: it copies at most
// limit live entries, ascending by reference, starting strictly after
// the cursor (or at the smallest live reference when haveCursor is
// false), under one short read lock — O(log live + limit), where
// sorting EntriesSeq costs O(live · log live) per call.
//
// Physical order is not reference order once a truncation has happened:
// the summary block sits at the head of the window while the entries it
// carries keep their small origin refs (§IV-B/C). The seek needs no index
// of its own to repair that. Every ref below the Genesis marker belongs
// to a carried entry, and the carried-entry ledger already holds those
// sorted by origin; every ref at or above it names an entry of the live
// normal block with that number (deletion requests included), which the
// live slice addresses directly.
//
// Refs are stable for the life of an entry and new blocks only mint
// higher ones, so a caller that feeds the last returned ref back as the
// cursor never sees a duplicate and never misses an entry that stays
// live for its whole scan, even when truncations move the window between
// calls. With skipMarked, entries whose deletion was approved but not
// yet physically executed are left out: they stay resolvable by Lookup
// until the next marker shift, but a reader should not be served them.
func (c *Chain) EntriesAfter(after block.Ref, haveCursor bool, limit int, skipMarked bool) []RefEntry {
	if limit <= 0 {
		return nil
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	skipMarked = skipMarked && len(c.marks) > 0
	ord := c.ledger.ordered
	// Sized for a page; a limit beyond the live set is not worth a guess.
	out := make([]RefEntry, 0, min(limit, len(ord)+len(c.blocks)))

	// Refs below the marker: the ledger's origin-ordered prefix.
	i := 0
	if haveCursor {
		i = sort.Search(len(ord), func(j int) bool { return refLess(after, ord[j].ce.Ref()) })
	}
	for ; i < len(ord) && len(out) < limit && ord[i].ce.OriginBlock < c.marker; i++ {
		if skipMarked && ord[i].marked {
			continue
		}
		out = append(out, RefEntry{Ref: ord[i].ce.Ref(), Entry: ord[i].ce.Entry})
	}

	// Refs at or above it: the live normal blocks, in slice order.
	num, first := c.marker, uint64(0)
	if haveCursor && after.Block >= c.marker {
		// The cursor's own block resumes past the cursor's entry.
		num, first = after.Block, uint64(after.Entry)+1
	}
	for ; len(out) < limit; num, first = num+1, 0 {
		b, ok := c.blockAt(num)
		if !ok {
			break
		}
		if b.IsSummary() {
			continue
		}
		for j := first; j < uint64(len(b.Entries)) && len(out) < limit; j++ {
			ref := block.Ref{Block: num, Entry: uint32(j)}
			if skipMarked {
				if _, marked := c.marks[ref]; marked {
					continue
				}
			}
			out = append(out, RefEntry{Ref: ref, Entry: b.Entries[j]})
		}
	}
	return out
}

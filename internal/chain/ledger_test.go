package chain

import (
	"context"
	"fmt"
	"testing"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/simclock"
)

// leafDrive appends rounds normal blocks to c from one goroutine — a
// data entry, a temporary whose deadline is never reached, and every
// fifth round a deletion of an earlier entry — appending each due
// summary as planned. It returns how many leaves the consumed plans
// hashed, how many entries the summaries carried in all, and the
// distinct refs they carried.
func leafDrive(t *testing.T, c *Chain, env *testEnv, tag string, rounds int) (hashed, carried int, distinct map[block.Ref]bool) {
	t.Helper()
	distinct = make(map[block.Ref]bool)
	var refs []block.Ref
	for r := 0; r < rounds; r++ {
		entries := []*block.Entry{
			env.data("alpha", fmt.Sprintf("%s-%03d", tag, r)),
			env.temp("alpha", fmt.Sprintf("%s-ttl-%03d", tag, r), 0, 1<<40),
		}
		if r%5 == 4 {
			entries = append(entries, env.del("alpha", refs[r/2]))
		}
		normal := mustBuildNormal(t, c, entries...)
		if err := c.AppendBlock(normal); err != nil {
			t.Fatal(err)
		}
		refs = append(refs, block.Ref{Block: normal.Header.Number, Entry: 0})
		for c.NextIsSummary() {
			s, err := c.BuildSummary()
			if err != nil {
				t.Fatal(err)
			}
			hashed += c.planned.Load().hashed
			carried += len(s.Carried)
			for _, ce := range s.Carried {
				distinct[ce.Ref()] = true
			}
			if err := c.AppendBlock(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	return hashed, carried, distinct
}

// TestCarriedLeafHashedOncePerLife pins the cost of a carry: an entry's
// Merkle leaf is hashed by the first summary that carries it and taken
// from its candidate by every later one, so the leaves hashed over a run
// equal the distinct entries carried, however often each is carried
// again. A restore starts without memos: each live carried entry is
// hashed once more, then never again.
func TestCarriedLeafHashedOncePerLife(t *testing.T) {
	env := newEnv(t, "alpha")
	cfg := Config{
		SequenceLength: 3, MaxSequences: 4, Shrink: ShrinkMinimal,
		Registry: env.registry, Clock: simclock.NewLogical(0),
	}
	c := newChain(t, cfg)
	hashed, carried, distinct := leafDrive(t, c, env, "first", 60)
	if hashed != len(distinct) {
		t.Fatalf("plans hashed %d leaves for %d distinct carried entries", hashed, len(distinct))
	}
	if carried < 3*hashed {
		t.Fatalf("fixture re-carries too little to prove anything: %d carried, %d distinct", carried, len(distinct))
	}
	// Hashing every carried leaf at every summary, as the planner did
	// before the memo, costs what the summaries carried in all.
	t.Logf("leaves hashed: %d (one per distinct entry); re-hashing each carry: %d", hashed, carried)

	restored, err := Restore(cfg, c.Blocks())
	if err != nil {
		t.Fatal(err)
	}
	if diff := restored.indexDiffForTest(); diff != "" {
		t.Fatal(diff)
	}
	var restoredCarried []block.Ref
	for _, cand := range restored.ledger.ordered {
		if cand.carried() && !cand.marked {
			restoredCarried = append(restoredCarried, cand.ce.Ref())
		}
	}
	if len(restoredCarried) == 0 {
		t.Fatal("restored chain carries nothing")
	}
	hashed, _, distinct = leafDrive(t, restored, env, "second", 60)
	if hashed != len(distinct) {
		t.Fatalf("after restore: plans hashed %d leaves for %d distinct carried entries", hashed, len(distinct))
	}
	for _, ref := range restoredCarried {
		if !distinct[ref] {
			t.Fatalf("restored carried entry %s was never carried again: the drive proves nothing about it", ref)
		}
	}
	if diff := restored.indexDiffForTest(); diff != "" {
		t.Fatal(diff)
	}
}

// TestPruneLeavesOrderedToTheCompactor: a cut drops from the index what
// the cut blocks held and lets go of each dropped entry at once; the
// ordered list keeps the dropped candidates, below the marker, until
// the compactor finds them a deadShare-th of it, so a compaction costs a
// few steps per dropped candidate, however many entries stay live.
func TestPruneLeavesOrderedToTheCompactor(t *testing.T) {
	env := newEnv(t, "alpha")
	cfg := Config{
		SequenceLength: 3, MaxSequences: 4, Shrink: ShrinkMinimal,
		Registry: env.registry, Clock: simclock.NewLogical(0),
	}
	c := newChain(t, cfg)
	defer c.Close()
	compactions, prevDead := 0, 0
	var prev block.Ref
	for round := 0; round < 120; round++ {
		// Each block writes an entry, a temporary that lives for a block,
		// and erases the entry before it.
		entries := []*block.Entry{
			env.data("alpha", fmt.Sprintf("e%03d", round)),
			env.temp("alpha", fmt.Sprintf("t%03d", round), 0, c.NextNumber()+1),
		}
		if round > 0 {
			entries = append(entries, env.del("alpha", prev))
		}
		prev = block.Ref{Block: mustSeal(t, c, entries...)[0].Header.Number}
		if err := c.CompactWait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if diff := c.indexDiffForTest(); diff != "" {
			t.Fatalf("round %d: %s", round, diff)
		}
		c.mu.RLock()
		ordered, live, dead := len(c.ledger.ordered), len(c.ledger.byRef), c.ledger.dead
		c.mu.RUnlock()
		if ordered != live+dead {
			t.Fatalf("round %d: ordered holds %d, live %d + pruned %d", round, ordered, live, dead)
		}
		if dead*deadShare >= ordered {
			t.Fatalf("round %d: %d pruned candidates left in an ordered list of %d", round, dead, ordered)
		}
		if dead < prevDead {
			compactions++
		}
		prevDead = dead
	}
	if compactions == 0 {
		t.Fatal("the ordered list was never compacted: the fixture prunes too little")
	}
}

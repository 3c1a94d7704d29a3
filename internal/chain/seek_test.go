package chain

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/simclock"
)

// sortedScan is the oracle EntriesAfter replaced on the read path: walk
// EntriesSeq over the whole live set and sort it by reference.
func sortedScan(c *Chain, skipMarked bool) []RefEntry {
	var out []RefEntry
	for ref, e := range c.EntriesSeq() {
		if skipMarked && c.IsMarked(ref) {
			continue
		}
		out = append(out, RefEntry{Ref: ref, Entry: e})
	}
	sort.Slice(out, func(i, j int) bool { return refLess(out[i].Ref, out[j].Ref) })
	return out
}

// checkSeekAgainstScan compares the seek with the oracle at every cursor
// position the chain distinguishes — no cursor, every live ref, the gaps
// around each of them, past the head — for several limits, with and
// without the marked-entry filter. It reports how many marked entries
// the filter had to skip.
func checkSeekAgainstScan(t *testing.T, c *Chain, when string) (marked int) {
	t.Helper()
	all := sortedScan(c, false)
	cursors := []block.Ref{
		{},
		{Block: c.Marker()},
		{Block: c.Head().Number + 1},
		{Block: math.MaxUint64, Entry: math.MaxUint32},
	}
	for _, it := range all {
		cursors = append(cursors, it.Ref,
			block.Ref{Block: it.Ref.Block, Entry: it.Ref.Entry + 1},
			block.Ref{Block: it.Ref.Block, Entry: math.MaxUint32})
		if it.Ref.Block > 0 {
			cursors = append(cursors, block.Ref{Block: it.Ref.Block - 1, Entry: math.MaxUint32})
		}
	}
	for _, skipMarked := range []bool{false, true} {
		scan := all
		if skipMarked {
			scan = sortedScan(c, true)
			marked = len(all) - len(scan)
		}
		for _, limit := range []int{1, 5, math.MaxInt} {
			for i, cur := range cursors {
				haveCursor := i > 0
				want := scan
				if haveCursor {
					want = scan[sort.Search(len(scan), func(k int) bool { return refLess(cur, scan[k].Ref) }):]
				}
				want = want[:min(limit, len(want))]
				got := c.EntriesAfter(cur, haveCursor, limit, skipMarked)
				if len(got) != len(want) {
					t.Fatalf("%s: after=%s have=%v limit=%d skipMarked=%v: %d entries, oracle %d",
						when, cur, haveCursor, limit, skipMarked, len(got), len(want))
				}
				for k := range got {
					if got[k] != want[k] {
						t.Fatalf("%s: after=%s have=%v limit=%d skipMarked=%v: entry %d is %s, oracle %s",
							when, cur, haveCursor, limit, skipMarked, k, got[k].Ref, want[k].Ref)
					}
				}
			}
		}
	}
	if got := c.EntriesAfter(block.Ref{}, false, 0, false); got != nil {
		t.Fatalf("%s: limit 0 returned %d entries", when, len(got))
	}
	return marked
}

// TestEntriesAfterMatchesSortedScan drives randomized chains — both
// shrink policies, a striped base block, deletions of normal and of
// carried entries, temporaries that expire at summarization — and holds
// the seek to the sort-of-EntriesSeq oracle throughout, then again on a
// copy restored from the live blocks, where several summaries enter the
// ledger with interleaved origins.
func TestEntriesAfterMatchesSortedScan(t *testing.T) {
	configs := []struct {
		name string
		mod  func(*Config)
	}{
		{"minimal", func(c *Config) { c.Shrink = ShrinkMinimal; c.SequenceLength = 3; c.MaxSequences = 4 }},
		{"all-but-newest", func(c *Config) { c.Shrink = ShrinkAllButNewest; c.SequenceLength = 4; c.MaxSequences = 3 }},
		{"minimal-striped", func(c *Config) {
			c.Shrink = ShrinkMinimal
			c.SequenceLength = 4
			c.MaxSequences = 3
			c.BaseBlock = 1 << 20
		}},
	}
	for _, tc := range configs {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				env := newEnv(t, "alpha", "beta")
				cfg := defaultConfig(env)
				tc.mod(&cfg)
				c := newChain(t, cfg)
				defer c.Close()
				rng := rand.New(rand.NewSource(seed))
				users := []string{"alpha", "beta"}
				type owned struct {
					ref   block.Ref
					owner string
				}
				var sealedRefs []owned
				markedSeen, carriedSeen := 0, 0
				for step := 0; step < 90; step++ {
					head := c.Head()
					var batch []*block.Entry
					var owners []string
					for n := 1 + rng.Intn(4); n > 0; n-- {
						u := users[rng.Intn(len(users))]
						switch r := rng.Intn(10); {
						case r < 2 && len(sealedRefs) > 0:
							victim := sealedRefs[rng.Intn(len(sealedRefs))]
							batch = append(batch, env.del(victim.owner, victim.ref))
						case r < 4:
							batch = append(batch, env.temp(u, fmt.Sprintf("tmp-%d-%d", step, n),
								head.Time+uint64(1+rng.Intn(12)), 0))
						case r < 5:
							batch = append(batch, env.temp(u, fmt.Sprintf("tmb-%d-%d", step, n),
								0, head.Number+uint64(1+rng.Intn(12))))
						default:
							batch = append(batch, env.data(u, fmt.Sprintf("d-%d-%d", step, n)))
						}
						owners = append(owners, u)
					}
					for _, b := range mustSeal(t, c, batch...) {
						if b.IsSummary() {
							continue
						}
						for i, e := range b.Entries {
							if e.Kind == block.KindData {
								sealedRefs = append(sealedRefs, owned{block.Ref{Block: b.Header.Number, Entry: uint32(i)}, owners[i]})
							}
						}
					}
					if step%6 == 0 || step > 80 {
						markedSeen += checkSeekAgainstScan(t, c, fmt.Sprintf("step %d", step))
						carriedSeen += c.Stats().CarriedEntries
					}
				}
				if c.Marker() == cfg.BaseBlock {
					t.Fatal("the chain never truncated; the test is vacuous")
				}
				if markedSeen == 0 || carriedSeen == 0 {
					t.Fatalf("checked %d marked and %d carried entries; the test is vacuous", markedSeen, carriedSeen)
				}

				restoreCfg := cfg
				restoreCfg.Clock = simclock.NewLogical(0)
				restored, err := Restore(restoreCfg, c.Blocks())
				if err != nil {
					t.Fatal(err)
				}
				defer restored.Close()
				checkSeekAgainstScan(t, restored, "restored")
				// The restored copy keeps paging correctly as it grows on.
				for i := 0; i < 12; i++ {
					if _, err := restored.SubmitWait(context.Background(), env.data("alpha", fmt.Sprintf("post-%d", i))); err != nil {
						t.Fatal(err)
					}
				}
				checkSeekAgainstScan(t, restored, "restored and grown")
			})
		}
	}
}

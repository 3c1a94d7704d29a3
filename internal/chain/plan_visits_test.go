package chain_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/simclock"
	"github.com/seldel/seldel/internal/store"
)

// TestSummaryPlanVisitsOnlyTheCut pins the planner's cost to the cut: on
// an 8×8 ShrinkMinimal chain of more than 5 000 live entries, with marks
// and expiring temporaries, every summary plan looks at exactly the
// ledger candidates the blocks it cuts hold — not at every entry carried
// below the new marker. A second chain fed the same blocks is reopened
// through store.Open midway; its plans obey the same count, and every
// summary block it builds is byte-identical to the uninterrupted chain's.
func TestSummaryPlanVisitsOnlyTheCut(t *testing.T) {
	reg := identity.NewRegistry()
	kp := identity.Deterministic("alpha", "plan-visits")
	if err := reg.RegisterKey(kp, identity.RoleUser); err != nil {
		t.Fatal(err)
	}
	config := func() chain.Config {
		return chain.Config{
			SequenceLength: 8, MaxSequences: 8, Shrink: chain.ShrinkMinimal,
			Registry: reg, Clock: simclock.NewLogical(0),
		}
	}
	const rounds, perBlock, reopenAt = 130, 45, 100
	ctx := context.Background()
	whole, err := chain.New(config())
	if err != nil {
		t.Fatal(err)
	}
	defer whole.Close()
	mem := store.NewMem()
	reopened, err := store.Open(config(), mem)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { reopened.Close() }()

	checkPlan := func(name string, c *chain.Chain) (visited, prefix, carried int) {
		t.Helper()
		visited, cutHolds, prefix, carried := c.PlanVisitsForTest()
		if visited != cutHolds {
			t.Fatalf("%s: summary %d: plan visited %d candidates, the cut blocks hold %d", name, c.Head().Number+1, visited, cutHolds)
		}
		return visited, prefix, carried
	}
	var data []block.Ref
	var cuts, visitedAll, prefixAll, carriedAll int
	for r := 0; r < rounds; r++ {
		if r == reopenAt {
			if err := reopened.CompactWait(ctx); err != nil {
				t.Fatal(err)
			}
			if err := reopened.Close(); err != nil {
				t.Fatal(err)
			}
			if reopened, err = store.Open(config(), mem); err != nil {
				t.Fatal(err)
			}
		}
		head := whole.Head().Number
		entries := make([]*block.Entry, 0, perBlock+6)
		for i := 0; i < perBlock; i++ {
			entries = append(entries, block.NewData("alpha", []byte(fmt.Sprintf("d-%03d-%02d", r, i))).Sign(kp))
		}
		for i := 0; i < 4; i++ {
			entries = append(entries, block.NewTemporary("alpha", []byte(fmt.Sprintf("t-%03d-%02d", r, i)), 0, head+uint64(10+8*i)).Sign(kp))
		}
		// One mark on a recent entry (still in its origin block or its
		// first summary) and one on an entry carried several times.
		if r >= 10 {
			entries = append(entries, block.NewDeletion("alpha", data[(r-10)*perBlock+r%perBlock]).Sign(kp))
		}
		if r >= 60 {
			entries = append(entries, block.NewDeletion("alpha", data[(r-60)*perBlock+(r+7)%perBlock]).Sign(kp))
		}
		normal, err := whole.BuildNormal(entries)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []*chain.Chain{whole, reopened} {
			if err := c.AppendBlock(normal); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < perBlock; i++ {
			data = append(data, block.Ref{Block: normal.Header.Number, Entry: uint32(i)})
		}
		for whole.NextIsSummary() {
			visited, prefix, carried := checkPlan("uninterrupted", whole)
			checkPlan("reopened", reopened)
			if visited > 0 {
				cuts++
				visitedAll, prefixAll, carriedAll = visitedAll+visited, prefixAll+prefix, carriedAll+carried
			}
			want, err := whole.BuildSummary()
			if err != nil {
				t.Fatal(err)
			}
			got, err := reopened.BuildSummary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Encode(), want.Encode()) {
				t.Fatalf("summary %d of the reopened chain differs from the uninterrupted chain's", want.Header.Number)
			}
			for _, c := range []*chain.Chain{whole, reopened} {
				if err := c.AppendBlock(want); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	st := whole.Stats()
	if st.LiveEntries < 5000 || st.ExpiredEntries == 0 || st.ForgottenEntries == 0 || cuts < 8 {
		t.Fatalf("fixture too weak: %d live, %d expired, %d forgotten, %d cuts", st.LiveEntries, st.ExpiredEntries, st.ForgottenEntries, cuts)
	}
	t.Logf("%d cuts: plans visited %d candidates for %d carried (%.2f per carried); an origin-ordered walk to the new marker visits %d (%.2f)",
		cuts, visitedAll, carriedAll, float64(visitedAll)/float64(carriedAll), prefixAll, float64(prefixAll)/float64(carriedAll))
}

// TestSummaryPlanSizesItsListsOnce pins how the planner collects Σ: its
// carried entries, their ledger candidates and their leaves are each
// allocated once, at the number of candidates the cut blocks hold, which
// the ledger knows before the walk. Appending would regrow each list
// about twenty times on the way to a Σ of 3 000 entries and leave a
// capacity other than that bound. Marked entries make the bound exceed
// what Σ carries.
func TestSummaryPlanSizesItsListsOnce(t *testing.T) {
	reg := identity.NewRegistry()
	kp := identity.Deterministic("alpha", "plan-lists")
	if err := reg.RegisterKey(kp, identity.RoleUser); err != nil {
		t.Fatal(err)
	}
	c, err := chain.New(chain.Config{
		SequenceLength: 4, MaxSequences: 2, Shrink: chain.ShrinkMinimal,
		Registry: reg, Clock: simclock.NewLogical(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const perBlock = 120
	var first block.Ref
	for r := 0; ; r++ {
		if r == 60 {
			t.Fatal("no summary of 3 000 entries within 60 blocks")
		}
		entries := make([]*block.Entry, 0, perBlock+1)
		for i := 0; i < perBlock; i++ {
			entries = append(entries, block.NewData("alpha", []byte(fmt.Sprintf("d-%03d-%03d", r, i))).Sign(kp))
		}
		if r > 0 {
			entries = append(entries, block.NewDeletion("alpha", block.Ref{Block: first.Block, Entry: uint32(r)}).Sign(kp))
		}
		normal, err := c.BuildNormal(entries)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AppendBlock(normal); err != nil {
			t.Fatal(err)
		}
		if r == 0 {
			first = block.Ref{Block: normal.Header.Number}
		}
		for c.NextIsSummary() {
			visited, carried, caps := c.PlanListsForTest()
			for i, name := range []string{"carried entries", "candidates", "leaves"} {
				if caps[i] != visited {
					t.Fatalf("summary %d: the plan's %s have capacity %d for %d candidates looked at", c.Head().Number+1, name, caps[i], visited)
				}
			}
			if carried >= 3000 {
				if visited == carried {
					t.Fatalf("summary %d looked at %d candidates and carries them all: no mark made the bound differ", c.Head().Number+1, visited)
				}
				return
			}
			sigma, err := c.BuildSummary()
			if err != nil {
				t.Fatal(err)
			}
			if err := c.AppendBlock(sigma); err != nil {
				t.Fatal(err)
			}
		}
	}
}

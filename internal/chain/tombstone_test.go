package chain

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/codec"
	"github.com/seldel/seldel/internal/manifest"
)

// deleteAndTruncate seals one data entry, deletes it, and drives the
// chain until the truncation that physically erases it has executed,
// returning the victim's ref and its entry digest.
// covers reports whether block n falls inside r's deleted range.
func covers(r manifest.Record, n uint64) bool {
	return n >= r.OldMarker && n < r.NewMarker
}

func deleteAndTruncate(t *testing.T, c *Chain, env *testEnv, tag string) (block.Ref, codec.Hash) {
	t.Helper()
	ctx := context.Background()
	e := env.data("alpha", "victim-"+tag)
	digest := e.Hash()
	sealed, err := c.SubmitWait(ctx, e)
	if err != nil {
		t.Fatal(err)
	}
	victim := sealed[0].Ref
	if _, err := c.SubmitWait(ctx, env.del("alpha", victim)); err != nil {
		t.Fatal(err)
	}
	// Filler churn until retention cuts past the victim.
	for i := 0; c.Marker() <= victim.Block; i++ {
		if i > 64 {
			t.Fatal("truncation never passed the victim")
		}
		if _, err := c.SubmitWait(ctx, env.data("alpha", fmt.Sprintf("churn-%s-%d", tag, i))); err != nil {
			t.Fatal(err)
		}
		if err := c.CompactWait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	return victim, digest
}

func TestTruncationSealsDeletionRecord(t *testing.T) {
	env := newEnv(t, "alpha")
	c := newChain(t, defaultConfig(env))
	defer c.Close()
	victim, digest := deleteAndTruncate(t, c, env, "a")

	recs, err := c.Tombstones(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no deletion record after truncation")
	}
	// Sequence numbers are strictly increasing from 1 and markers never
	// regress: the log is a coherent history, not a bag.
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Errorf("record %d has seq %d", i, r.Seq)
		}
		if i > 0 && r.NewMarker < recs[i-1].NewMarker {
			t.Errorf("record %d regresses marker %d -> %d", i, recs[i-1].NewMarker, r.NewMarker)
		}
	}
	head := recs[len(recs)-1]
	if head.NewMarker != c.Marker() {
		t.Errorf("head record marker %d, chain marker %d", head.NewMarker, c.Marker())
	}
	if got, ok := c.TombstoneHead(); !ok || got.Seq != head.Seq {
		t.Errorf("TombstoneHead = %+v ok=%v", got, ok)
	}
	if c.ResurrectionFloor() != head.NewMarker {
		t.Errorf("floor %d, want %d", c.ResurrectionFloor(), head.NewMarker)
	}
	// The record that covers the victim carries its tombstone, with the
	// requester identity and the erased entry's content digest.
	var tomb *manifest.Tombstone
	for _, r := range recs {
		if covers(r, victim.Block) {
			if tb, ok := r.FindTombstone(victim); ok {
				tomb = &tb
				// The summary block the record points at is still live
				// and hashes to the recorded digest.
				if b, ok := c.blockAt(r.SummaryBlock); ok {
					if b.Hash() != r.SummaryHash {
						t.Error("record summary hash does not match the live summary block")
					}
				}
			}
		}
	}
	if tomb == nil {
		t.Fatal("no tombstone for the deleted entry")
	}
	if tomb.Requester != "alpha" {
		t.Errorf("tombstone requester %q", tomb.Requester)
	}
	if tomb.EntryDigest != digest {
		t.Error("tombstone digest does not match the erased entry")
	}
	if tomb.MarkedAtBlock == 0 {
		t.Error("tombstone lost the marking height")
	}
}

func TestProveDeletedAndVerify(t *testing.T) {
	env := newEnv(t, "alpha")
	c := newChain(t, defaultConfig(env))
	defer c.Close()
	victim, _ := deleteAndTruncate(t, c, env, "b")

	// The entry is gone from the chain...
	if _, _, ok := c.Lookup(victim); ok {
		t.Fatal("victim still resolvable after truncation")
	}
	// ...but the proof of its deliberate erasure verifies.
	p, err := c.ProveDeleted(victim)
	if err != nil {
		t.Fatalf("ProveDeleted: %v", err)
	}
	if err := p.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !covers(p.Record, victim.Block) {
		t.Error("proof record does not cover the victim")
	}

	// Still-live entries and never-existed refs draw distinct errors.
	sealed, err := c.SubmitWait(context.Background(), env.data("alpha", "live"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ProveDeleted(sealed[0].Ref); !errors.Is(err, ErrNotDeleted) {
		t.Errorf("live entry: %v, want ErrNotDeleted", err)
	}
	if _, err := c.ProveDeleted(block.Ref{Block: 1 << 40, Entry: 7}); !errors.Is(err, ErrNotFound) {
		t.Errorf("phantom ref: %v, want ErrNotFound", err)
	}

	// Tampering is detected: the proof is self-contained evidence, so
	// every rebinding attempt must fail Verify.
	tampered := *p
	tampered.Ref = block.Ref{Block: p.Ref.Block, Entry: p.Ref.Entry + 1}
	if err := tampered.Verify(); err == nil {
		t.Error("proof rebound to a sibling entry verified")
	}
	tampered = *p
	tampered.Tombstone.Requester = "mallory"
	if err := tampered.Verify(); err == nil {
		t.Error("proof with forged requester verified")
	}
	if p.SummaryHeader != nil {
		hdr := *p.SummaryHeader
		hdr.Time++
		tampered = *p
		tampered.SummaryHeader = &hdr
		if err := tampered.Verify(); err == nil {
			t.Error("proof with doctored summary header verified")
		}
	}
	// A record whose new marker sits at or below the target's block is
	// impossible (the block would not have been cut yet). Range shifts
	// that keep the target below the new marker are legitimate — that
	// is exactly the shape of a carried entry erased when its carrier
	// summary was cut (see TestProveDeletedCarriedVictim).
	tampered = *p
	tampered.Record.NewMarker = p.Ref.Block
	if err := tampered.Verify(); err == nil {
		t.Error("proof with record marker at the target block verified")
	}
}

// TestProveDeletedCarriedVictim pins the carried-entry erasure shape:
// an entry that survived into a summary block before its deletion mark
// landed is erased when the carrier is cut, so the covering record's
// range starts above the entry's origin block. The proof must still
// verify — the tombstone membership, not origin-range coverage, is the
// binding.
func TestProveDeletedCarriedVictim(t *testing.T) {
	env := newEnv(t, "alpha")
	c := newChain(t, defaultConfig(env))
	defer c.Close()
	ctx := context.Background()
	sealed, err := c.SubmitWait(ctx, env.data("alpha", "carried-victim"))
	if err != nil {
		t.Fatal(err)
	}
	victim := sealed[0].Ref
	// Churn until the origin block is cut while the entry (unmarked)
	// is carried forward.
	for i := 0; c.Marker() <= victim.Block; i++ {
		if i > 64 {
			t.Fatal("origin block never cut")
		}
		if _, err := c.SubmitWait(ctx, env.data("alpha", fmt.Sprintf("pre-churn-%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := c.CompactWait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := c.Lookup(victim); !ok {
		t.Fatal("victim not carried forward")
	}
	// Now delete the carried entry and churn until the mark executes.
	if _, err := c.SubmitWait(ctx, env.del("alpha", victim)); err != nil {
		t.Fatal(err)
	}
	var proof *DeletedProof
	for i := 0; ; i++ {
		if i > 64 {
			t.Fatal("carried victim never erased")
		}
		if _, err := c.SubmitWait(ctx, env.data("alpha", fmt.Sprintf("post-churn-%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := c.CompactWait(ctx); err != nil {
			t.Fatal(err)
		}
		if p, err := c.ProveDeleted(victim); err == nil {
			proof = p
			break
		}
	}
	if covers(proof.Record, victim.Block) {
		t.Log("record covers the origin; carried shape not exercised this run")
	}
	if err := proof.Verify(); err != nil {
		t.Fatalf("carried-victim proof failed verification: %v", err)
	}
}

// TestProveDeletedRecordOnly covers the degraded path: when the summary
// block the record points at is no longer live (a later truncation cut
// it), the record and tombstone alone remain the evidence.
func TestProveDeletedRecordOnly(t *testing.T) {
	env := newEnv(t, "alpha")
	c := newChain(t, defaultConfig(env))
	defer c.Close()
	victim, _ := deleteAndTruncate(t, c, env, "c")
	// Keep truncating until the covering record's summary block is cut.
	for i := 0; ; i++ {
		if i > 64 {
			t.Skip("summary block never left the live window")
		}
		p, err := c.ProveDeleted(victim)
		if err != nil {
			t.Fatal(err)
		}
		if p.SummaryHeader == nil {
			if err := p.Verify(); err != nil {
				t.Fatalf("record-only proof failed verification: %v", err)
			}
			return
		}
		if _, err := c.SubmitWait(context.Background(), env.data("alpha", fmt.Sprintf("roll-%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := c.CompactWait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSeedTombstones(t *testing.T) {
	env := newEnv(t, "alpha")
	c := newChain(t, defaultConfig(env))
	defer c.Close()
	target := block.Ref{Block: 4, Entry: 0}
	seeded := []manifest.Record{
		{Seq: 3, OldMarker: 0, NewMarker: 3},
		{Seq: 5, OldMarker: 3, NewMarker: 6, Tombstones: []manifest.Tombstone{
			{Target: target, Requester: "alpha"},
		}},
	}
	// Seed out of order: the index must sort by sequence.
	c.SeedTombstones([]manifest.Record{seeded[1], seeded[0]})

	if got := c.ResurrectionFloor(); got != 6 {
		t.Errorf("floor %d after seeding, want 6", got)
	}
	if head, ok := c.TombstoneHead(); !ok || head.Seq != 5 {
		t.Errorf("head = %+v ok=%v, want seq 5", head, ok)
	}
	p, err := c.ProveDeleted(target)
	if err != nil {
		t.Fatalf("ProveDeleted on seeded tombstone: %v", err)
	}
	if err := p.Verify(); err != nil {
		t.Fatalf("seeded proof: %v", err)
	}
	if p.SummaryHeader != nil {
		t.Error("seeded proof claims a live summary it cannot have")
	}

	// Records sealed after seeding continue the sequence instead of
	// colliding with it.
	deleteAndTruncate(t, c, env, "d")
	head, ok := c.TombstoneHead()
	if !ok || head.Seq <= 5 {
		t.Fatalf("post-seed record seq %d, want > 5", head.Seq)
	}
	recs, err := c.Tombstones(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 3 {
		t.Fatalf("seeded records dropped: %d total", len(recs))
	}
}

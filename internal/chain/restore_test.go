package chain

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"strings"
	"testing"

	"github.com/seldel/seldel/internal/attack"
	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/deletion"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/simclock"
	"github.com/seldel/seldel/internal/verify"
)

// restoreFixture builds a live chain with data, deletion marks, and
// summary blocks that carry entries of cut sequences, returning its
// blocks and config.
func restoreFixture(t *testing.T, n int) (Config, []*block.Block, *Chain) {
	t.Helper()
	reg := identity.NewRegistry()
	kp := identity.Deterministic("writer", "restore-test")
	if err := reg.RegisterKey(kp, identity.RoleUser); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		SequenceLength: 3,
		MaxSequences:   4,
		Shrink:         ShrinkMinimal,
		Registry:       reg,
		Clock:          simclock.NewLogical(0),
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ctx := context.Background()
	for i := 0; i < n; i++ {
		e := block.NewData("writer", []byte(fmt.Sprintf("r-%02d", i))).Sign(kp)
		sealed, err := c.SubmitWait(ctx, e)
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if _, err := c.SubmitWait(ctx, block.NewDeletion("writer", sealed[0].Ref).Sign(kp)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A fresh logical clock for each restore, so timestamps replay.
	restoreCfg := cfg
	restoreCfg.Clock = simclock.NewLogical(0)
	return restoreCfg, c.Blocks(), c
}

// seqOf streams an in-memory slice.
func seqOf(blocks []*block.Block) iter.Seq2[*block.Block, error] {
	return func(yield func(*block.Block, error) bool) {
		for _, b := range blocks {
			if !yield(b, nil) {
				return
			}
		}
	}
}

// origins are the two restore entry points: somebody else's blocks
// pushed into a Restorer one at a time, exactly as a node adopting a
// snapshot offer does (owner signatures verified), and the node's own
// store (bytes only).
var origins = map[string]func(Config, iter.Seq2[*block.Block, error]) (*Chain, error){
	"foreign": func(cfg Config, blocks iter.Seq2[*block.Block, error]) (*Chain, error) {
		r := NewRestorer(cfg)
		for b, err := range blocks {
			if err != nil {
				return nil, err
			}
			if err := r.Add(b); err != nil {
				return nil, err
			}
		}
		return r.Finish()
	},
	"own": restoreOwnStream,
}

// restoreBlocks restores somebody else's blocks held in memory.
func restoreBlocks(cfg Config, blocks []*block.Block) (*Chain, error) {
	return origins["foreign"](cfg, seqOf(blocks))
}

// TestRestoreReproducesLiveState pins that a restore from either origin
// reproduces the live chain's state — head hash, marker, marks, entry
// index — and that the restored chain passes both audits.
func TestRestoreReproducesLiveState(t *testing.T) {
	cfg, blocks, live := restoreFixture(t, 20)
	for name, restore := range origins {
		restored, err := restore(cfg, seqOf(blocks))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer restored.Close()
		if restored.HeadHash() != live.HeadHash() {
			t.Errorf("%s: restored head hash differs", name)
		}
		if restored.Marker() != live.Marker() {
			t.Errorf("%s: restored marker %d, want %d", name, restored.Marker(), live.Marker())
		}
		if got, want := len(restored.Marks()), len(live.Marks()); got != want || got == 0 {
			t.Errorf("%s: restored %d marks, want %d", name, got, want)
		}
		if got, want := restored.Stats(), live.Stats(); got.LiveEntries != want.LiveEntries || got.LiveBytes != want.LiveBytes {
			t.Errorf("%s: restored %d live entries in %d bytes, want %d in %d",
				name, got.LiveEntries, got.LiveBytes, want.LiveEntries, want.LiveBytes)
		}
		if err := restored.VerifyIntegrity(); err != nil {
			t.Errorf("%s: restored integrity: %v", name, err)
		}
		if err := restored.VerifySignatures(); err != nil {
			t.Errorf("%s: restored signatures: %v", name, err)
		}
	}
}

// edited returns a copy of blocks in which edit was applied to a clone
// of blocks[at] and nothing was fixed up around it.
func edited(blocks []*block.Block, at int, edit func(*block.Block)) []*block.Block {
	out := make([]*block.Block, len(blocks))
	copy(out, blocks)
	out[at] = out[at].Clone()
	edit(out[at])
	return out
}

// TestRestoreRejectsTamperedBlocks is the tamper matrix at chain level:
// whatever breaks the bytes or the links is rejected from both origins
// with a typed error, at the offending block. The one row the origins
// differ on is the boundary itself: a suffix re-hashed around a forged
// owner signature is refused from a peer, opens from the own store, and
// is then named by VerifySignatures.
func TestRestoreRejectsTamperedBlocks(t *testing.T) {
	cfg, blocks, _ := restoreFixture(t, 20)
	normal, summary := -1, -1
	for i, b := range blocks[:len(blocks)-2] {
		if i == 0 {
			continue
		}
		if b.IsSummary() && len(b.Carried) > 0 {
			summary = i
		} else if !b.IsSummary() && len(b.Entries) > 0 && b.Entries[0].Kind == block.KindData {
			normal = i
		}
	}
	if normal < 0 || summary < 0 {
		t.Fatalf("fixture lacks a data block (%d) or a non-empty summary (%d)", normal, summary)
	}
	cases := []struct {
		name     string
		blocks   []*block.Block
		want     error // from both origins, unless ownOpens
		ownOpens bool
		at       int
	}{
		{name: "payload edited", at: normal, want: block.ErrRootMismatch,
			blocks: edited(blocks, normal, func(b *block.Block) { b.Entries[0].Payload = []byte("tampered") })},
		{name: "carried payload edited", at: summary, want: block.ErrRootMismatch,
			blocks: edited(blocks, summary, func(b *block.Block) { b.Carried[0].Entry.Payload = []byte("tampered") })},
		{name: "self-consistent replacement", at: normal, want: ErrNotNext,
			blocks: edited(blocks, normal, func(b *block.Block) {
				b.Entries, b.Header.EntriesRoot = nil, block.EntriesRoot(nil)
			})},
		{name: "time regressed, suffix re-hashed", at: normal, want: ErrTimeRegression,
			blocks: attack.RehashedSuffix(blocks, normal, func(b *block.Block) { b.Header.Time = 0 })},
		{name: "summary time moved, suffix re-hashed", at: summary, want: ErrSummaryMismatch,
			blocks: attack.RehashedSuffix(blocks, summary, func(b *block.Block) { b.Header.Time++ })},
		{name: "owner signature forged, suffix re-hashed", at: normal, want: identity.ErrBadSignature, ownOpens: true,
			blocks: attack.RehashedSuffix(blocks, normal, func(b *block.Block) { attack.ForgeEntry(b.Entries[0]) })},
		{name: "carried owner signature forged, suffix re-hashed", at: summary, want: identity.ErrBadSignature, ownOpens: true,
			blocks: attack.RehashedSuffix(blocks, summary, func(b *block.Block) { attack.ForgeEntry(b.Carried[0].Entry) })},
	}
	for _, tc := range cases {
		for name, restore := range origins {
			c, err := restore(cfg, seqOf(tc.blocks))
			if name == "own" && tc.ownOpens {
				if err != nil {
					t.Errorf("%s from %s: %v, want it to open", tc.name, name, err)
					continue
				}
				err = c.VerifySignatures()
				var ee *verify.EntryError
				where := fmt.Sprintf("block %d:", tc.blocks[tc.at].Header.Number)
				if !errors.Is(err, tc.want) || !errors.As(err, &ee) || ee.Index != 0 || !strings.Contains(err.Error(), where) {
					t.Errorf("%s: VerifySignatures = %v, want %v naming %s entry 0", tc.name, err, tc.want, where)
				}
				c.Close()
				continue
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("%s from %s: error %v, want %v", tc.name, name, err, tc.want)
			}
			if c != nil {
				c.Close()
			}
		}
	}
}

// TestRestoreStreamPropagatesSourceError pins that an error yielded by
// the stream itself surfaces.
func TestRestoreStreamPropagatesSourceError(t *testing.T) {
	cfg, blocks, _ := restoreFixture(t, 12)
	srcErr := errors.New("disk exploded")
	var seq iter.Seq2[*block.Block, error] = func(yield func(*block.Block, error) bool) {
		for i, b := range blocks {
			if i == 5 {
				yield(nil, srcErr)
				return
			}
			if !yield(b, nil) {
				return
			}
		}
	}
	for name, restore := range origins {
		if _, err := restore(cfg, seq); !errors.Is(err, srcErr) {
			t.Fatalf("%s: restore error = %v, want wrapped source error", name, err)
		}
	}
}

// TestVerifySignaturesRederivesMarks pins the second half of the audit:
// an active mark must follow from the co-signatures of the request that
// created it. A mark in memory that its request does not justify — here
// planted on the target of a request the chain rejected, for want of the
// dependent owner's co-signature — is named with its request's position.
func TestVerifySignaturesRederivesMarks(t *testing.T) {
	env := newEnv(t, "alpha", "beta")
	cfg := defaultConfig(env)
	cfg.MaxSequences = 0
	c := newChain(t, cfg)
	defer c.Close()
	target := block.Ref{Block: mustSeal(t, c, env.data("alpha", "kept"))[0].Header.Number}
	mustSeal(t, c, block.NewData("beta", []byte("dependent")).WithDependsOn(target).Sign(env.keys["beta"]))
	request := block.Ref{Block: mustSeal(t, c, env.del("alpha", target))[0].Header.Number}
	if c.IsMarked(target) {
		t.Fatal("request without the dependent's co-signature was approved")
	}
	if err := c.VerifySignatures(); err != nil {
		t.Fatalf("VerifySignatures on an honest chain: %v", err)
	}
	c.mu.Lock()
	c.marks[target] = Mark{Target: target, Requester: "alpha", RequestRef: request}
	c.mu.Unlock()
	err := c.VerifySignatures()
	if where := fmt.Sprintf("block %d: entry 0:", request.Block); !errors.Is(err, deletion.ErrMissingCoSign) || !strings.Contains(err.Error(), where) {
		t.Fatalf("VerifySignatures = %v, want a missing co-signature at %s", err, where)
	}
}

// TestRestorerCarriesConfigError pins that a Restorer built from an
// invalid Config refuses every block and never yields a chain.
func TestRestorerCarriesConfigError(t *testing.T) {
	_, blocks, _ := restoreFixture(t, 1)
	r := NewRestorer(Config{SequenceLength: 1})
	if err := r.Add(blocks[0]); !errors.Is(err, ErrConfig) {
		t.Fatalf("Add = %v, want ErrConfig", err)
	}
	if c, err := r.Finish(); c != nil || !errors.Is(err, ErrConfig) {
		t.Fatalf("Finish = %v, %v, want no chain and ErrConfig", c, err)
	}
}

// TestRestoreRejectsCorruptSuffix: a restore of somebody else's blocks
// refuses an empty suffix, a gap in the hash links and a suffix that
// does not start at a sequence boundary.
func TestRestoreRejectsCorruptSuffix(t *testing.T) {
	env := newEnv(t, "alpha")
	cfg := defaultConfig(env)
	cfg.MaxSequences = 1
	cfg.Shrink = ShrinkMinimal
	c := newChain(t, cfg)
	defer c.Close()
	for i := 0; i < 4; i++ {
		if _, err := SealBlocks(context.Background(), c, env.data("alpha", fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := c.CompactWait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	blocks := c.Blocks()
	restore := func(blocks []*block.Block) (*Chain, error) {
		r := NewRestorer(cfg)
		for _, b := range blocks {
			if err := r.Add(b); err != nil {
				return nil, err
			}
		}
		return r.Finish()
	}
	if _, err := restore(nil); err == nil {
		t.Error("empty restore accepted")
	}
	// Drop a middle block: hash link broken.
	gap := append(append([]*block.Block{}, blocks[:2]...), blocks[3:]...)
	if _, err := restore(gap); err == nil {
		t.Error("gapped restore accepted")
	}
	// Misaligned start (not at a sequence boundary).
	if _, err := restore(blocks[1:]); err == nil {
		t.Error("misaligned restore accepted")
	}
}

package store_test

import (
	"context"
	"fmt"
	"testing"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/simclock"
	"github.com/seldel/seldel/internal/store"
	"github.com/seldel/seldel/internal/store/segment"
)

// sealOne drives one entry through the chain's submission pipeline and
// returns the appended blocks (normal plus any due summary), waiting
// for pending compaction so store assertions are deterministic.
func sealOne(t *testing.T, c *chain.Chain, e *block.Entry) []*block.Block {
	t.Helper()
	blocks, err := chain.SealBlocks(context.Background(), c, e)
	if err != nil {
		t.Fatalf("SealBlocks: %v", err)
	}
	if err := c.CompactWait(context.Background()); err != nil {
		t.Fatalf("CompactWait: %v", err)
	}
	return blocks
}

func chainConfig(reg *identity.Registry) chain.Config {
	return chain.Config{
		SequenceLength: 3,
		MaxSequences:   1,
		Shrink:         chain.ShrinkMinimal,
		Registry:       reg,
		Clock:          simclock.NewLogical(0),
	}
}

func TestRecorderMirrorsChain(t *testing.T) {
	reg := identity.NewRegistry()
	kp := identity.Deterministic("alpha", "store-test")
	if err := reg.RegisterKey(kp, identity.RoleUser); err != nil {
		t.Fatal(err)
	}
	c, err := chain.New(chainConfig(reg))
	if err != nil {
		t.Fatal(err)
	}
	s, err := segment.Open(t.TempDir(), segment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := store.Attach(c, s); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		e := block.NewData("alpha", []byte(fmt.Sprintf("p%d", i))).Sign(kp)
		sealOne(t, c, e)
	}
	if err := c.StoreErr(); err != nil {
		t.Fatalf("store error: %v", err)
	}
	// Store must hold exactly the live blocks.
	first, last, ok, err := s.Range()
	if err != nil || !ok {
		t.Fatal(err)
	}
	if first != c.Marker() || last != c.Head().Number {
		t.Errorf("store range %d..%d, chain %d..%d", first, last, c.Marker(), c.Head().Number)
	}
}

func TestRestoreRejectsCorruptSuffix(t *testing.T) {
	reg := identity.NewRegistry()
	kp := identity.Deterministic("alpha", "store-test")
	if err := reg.RegisterKey(kp, identity.RoleUser); err != nil {
		t.Fatal(err)
	}
	cfg := chainConfig(reg)
	c, err := chain.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		e := block.NewData("alpha", []byte(fmt.Sprintf("p%d", i))).Sign(kp)
		sealOne(t, c, e)
	}
	blocks := c.Blocks()
	if _, err := restoreBlocks(cfg, nil); err == nil {
		t.Error("empty restore accepted")
	}
	// Drop a middle block: hash link broken.
	gap := append(append([]*block.Block{}, blocks[:2]...), blocks[3:]...)
	if _, err := restoreBlocks(cfg, gap); err == nil {
		t.Error("gapped restore accepted")
	}
	// Misaligned start (not at a sequence boundary).
	if _, err := restoreBlocks(cfg, blocks[1:]); err == nil {
		t.Error("misaligned restore accepted")
	}
}

// restoreBlocks restores somebody else's blocks held in memory, as a
// node adopting a peer's offer does.
func restoreBlocks(cfg chain.Config, blocks []*block.Block) (*chain.Chain, error) {
	r := chain.NewRestorer(cfg)
	for _, b := range blocks {
		if err := r.Add(b); err != nil {
			return nil, err
		}
	}
	return r.Finish()
}

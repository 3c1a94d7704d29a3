package store

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/simclock"
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

func testBlock(t *testing.T, num uint64, prev *block.Block) *block.Block {
	t.Helper()
	kp := identity.Deterministic("alpha", "store-test")
	e := block.NewData("alpha", []byte(fmt.Sprintf("payload-%d", num))).Sign(kp)
	prevHash := block.GenesisPrevHash
	var prevTime uint64
	if prev != nil {
		prevHash = prev.Hash()
		prevTime = prev.Header.Time
	}
	return block.NewNormal(num, prevTime+1, prevHash, []*block.Entry{e})
}

// SizeBytes returns the total stored block bytes.
func (m *Mem) SizeBytes() (int64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return 0, ErrClosed
	}
	var total int64
	for _, raw := range m.blocks {
		total += int64(len(raw))
	}
	return total, nil
}

func TestMemStoreContract(t *testing.T) {
	s := NewMem()
	if _, _, ok, err := s.Range(); err != nil || ok {
		t.Fatalf("fresh store Range = ok=%v err=%v", ok, err)
	}
	var blocks []*block.Block
	var prev *block.Block
	for num := uint64(0); num < 6; num++ {
		b := testBlock(t, num, prev)
		blocks = append(blocks, b)
		prev = b
		if err := s.PutBlock(b); err != nil {
			t.Fatalf("PutBlock(%d): %v", num, err)
		}
	}
	first, last, ok, err := s.Range()
	if err != nil || !ok || first != 0 || last != 5 {
		t.Fatalf("Range = %d..%d ok=%v err=%v", first, last, ok, err)
	}
	sizeBefore, err := s.SizeBytes()
	if err != nil || sizeBefore <= 0 {
		t.Fatalf("SizeBytes = %d, %v", sizeBefore, err)
	}
	// Truncate below 3 and verify physical deletion.
	if err := s.DeleteBelow(3); err != nil {
		t.Fatalf("DeleteBelow: %v", err)
	}
	sizeAfter, err := s.SizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if sizeAfter >= sizeBefore {
		t.Errorf("no space reclaimed: %d -> %d", sizeBefore, sizeAfter)
	}
	// Stream yields exactly the blocks at and above the marker, in
	// order and unchanged, and honours early termination.
	var streamed []*block.Block
	for b, err := range s.Stream() {
		if err != nil {
			t.Fatalf("Stream: %v", err)
		}
		streamed = append(streamed, b)
	}
	if len(streamed) != 3 {
		t.Fatalf("Stream yielded %d blocks, want 3", len(streamed))
	}
	for i, b := range streamed {
		if b.Hash() != blocks[3+i].Hash() {
			t.Errorf("Stream[%d] is not block %d as stored", i, 3+i)
		}
	}
	for range s.Stream() {
		break // an early break must not panic or leak
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.PutBlock(blocks[0]); !errors.Is(err, ErrClosed) {
		t.Errorf("PutBlock after Close = %v, want ErrClosed", err)
	}
	for _, err := range s.Stream() {
		if !errors.Is(err, ErrClosed) {
			t.Errorf("Stream after Close = %v, want ErrClosed", err)
		}
	}
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
	s := NewMem()
	if err := Attach(c, s); err != nil {
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

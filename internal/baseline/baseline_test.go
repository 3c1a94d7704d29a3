package baseline

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"testing"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/identity"
)

// Verify walks the hash links.
func (p *PlainChain) Verify() error {
	for i := 1; i < len(p.blocks); i++ {
		if p.blocks[i].Header.PrevHash != p.blocks[i-1].Hash() {
			return fmt.Errorf("plain chain: broken link at %d", i)
		}
	}
	return nil
}

// Lookup fetches an entry by (block, entry) coordinates.
func (p *PlainChain) Lookup(ref block.Ref) (*block.Entry, error) {
	if ref.Block >= uint64(len(p.blocks)) {
		return nil, fmt.Errorf("%w: block %d", ErrOutOfRange, ref.Block)
	}
	b := p.blocks[ref.Block]
	if int(ref.Entry) >= len(b.Entries) {
		return nil, fmt.Errorf("%w: %s", ErrNoEntry, ref)
	}
	return b.Entries[ref.Entry], nil
}

func entries(t *testing.T, n int, tag string) []*block.Entry {
	t.Helper()
	kp := identity.Deterministic("alpha", "baseline-test")
	out := make([]*block.Entry, n)
	for i := range out {
		out[i] = block.NewData("alpha", []byte(fmt.Sprintf("%s-%d", tag, i))).Sign(kp)
	}
	return out
}

func TestPlainChainGrowsWithoutBound(t *testing.T) {
	p := NewPlain()
	sizes := make([]int64, 0, 5)
	for i := 0; i < 50; i++ {
		p.Append(entries(t, 2, fmt.Sprintf("b%d", i)))
		if i%10 == 9 {
			sizes = append(sizes, p.Bytes())
		}
	}
	if p.Len() != 51 {
		t.Errorf("Len = %d", p.Len())
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Error("plain chain size did not grow monotonically")
		}
	}
	if err := p.Verify(); err != nil {
		t.Error(err)
	}
}

func TestPlainChainLookup(t *testing.T) {
	p := NewPlain()
	es := entries(t, 3, "x")
	p.Append(es)
	got, err := p.Lookup(block.Ref{Block: 1, Entry: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Payload, es[2].Payload) {
		t.Error("lookup returned wrong entry")
	}
	if _, err := p.Lookup(block.Ref{Block: 9}); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("err = %v", err)
	}
	if _, err := p.Lookup(block.Ref{Block: 1, Entry: 9}); !errors.Is(err, ErrNoEntry) {
		t.Errorf("err = %v", err)
	}
}

func TestLocalPruneGlobalVsLocal(t *testing.T) {
	l := NewLocalPrune(5)
	for i := 0; i < 40; i++ {
		l.Append(entries(t, 2, fmt.Sprintf("b%d", i)))
	}
	if l.chain.Len() != 41 {
		t.Errorf("Len = %d", l.chain.Len())
	}
	global, local := l.GlobalBytes(), l.LocalBytes()
	if local >= global {
		t.Errorf("local %d not smaller than global %d", local, global)
	}
	// The paper's point (§III): pruning does not delete anything from
	// the network — the global chain still serves a pruned entry.
	if _, err := l.chain.Lookup(block.Ref{Block: 1, Entry: 0}); err != nil {
		t.Errorf("local pruning deleted globally: %v", err)
	}
}

func TestHardForkDeletion(t *testing.T) {
	h := NewHardFork()
	for i := 0; i < 20; i++ {
		h.Append(entries(t, 2, fmt.Sprintf("b%d", i)))
	}
	headBefore := h.HeadHash()
	sizeBefore := h.chain.Bytes()

	// Delete an entry early in the chain: nearly everything rebuilds.
	rebuilt, err := h.Delete(block.Ref{Block: 3, Entry: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt != 18 { // blocks 3..20
		t.Errorf("rebuilt = %d, want 18", rebuilt)
	}
	if h.HeadHash() == headBefore {
		t.Error("hard fork did not change the head (no migration signal)")
	}
	if h.chain.Bytes() >= sizeBefore {
		t.Error("size did not shrink after deletion")
	}
	if err := h.chain.Verify(); err != nil {
		t.Errorf("rebuilt chain invalid: %v", err)
	}
	// The entry is gone; its sibling survived.
	b3Entries := h.chain.blocks[3].Entries
	if len(b3Entries) != 1 {
		t.Fatalf("block 3 has %d entries, want 1", len(b3Entries))
	}
	if !bytes.HasPrefix(b3Entries[0].Payload, []byte("b2-0")) {
		t.Errorf("surviving entry = %q", b3Entries[0].Payload)
	}
}

func TestHardForkCostGrowsWithChainLength(t *testing.T) {
	shortChain := NewHardFork()
	for i := 0; i < 10; i++ {
		shortChain.Append(entries(t, 1, "s"))
	}
	longChain := NewHardFork()
	for i := 0; i < 100; i++ {
		longChain.Append(entries(t, 1, "l"))
	}
	rs, err := shortChain.Delete(block.Ref{Block: 1, Entry: 0})
	if err != nil {
		t.Fatal(err)
	}
	rl, err := longChain.Delete(block.Ref{Block: 1, Entry: 0})
	if err != nil {
		t.Fatal(err)
	}
	if rl <= rs {
		t.Errorf("rebuild cost did not grow with length: %d vs %d", rs, rl)
	}
}

func TestHardForkDeleteValidation(t *testing.T) {
	h := NewHardFork()
	h.Append(entries(t, 1, "x"))
	if _, err := h.Delete(block.Ref{Block: 0}); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("genesis delete: %v", err)
	}
	if _, err := h.Delete(block.Ref{Block: 9}); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("out of range: %v", err)
	}
	if _, err := h.Delete(block.Ref{Block: 1, Entry: 5}); !errors.Is(err, ErrNoEntry) {
		t.Errorf("missing entry: %v", err)
	}
}

func TestChameleonHashCollision(t *testing.T) {
	key, err := GenerateChameleonKey()
	if err != nil {
		t.Fatal(err)
	}
	cp := &key.Params
	r := big.NewInt(123456789)
	oldMsg := []byte("original content")
	newMsg := []byte("rewritten content")
	h1 := cp.Hash(oldMsg, r)
	r2, err := key.Collide(oldMsg, r, newMsg)
	if err != nil {
		t.Fatal(err)
	}
	h2 := cp.Hash(newMsg, r2)
	if h1.Cmp(h2) != 0 {
		t.Error("collision does not preserve the chameleon hash")
	}
	// Without the collision the hashes differ.
	if cp.Hash(newMsg, r).Cmp(h1) == 0 {
		t.Error("different messages hash equal with same randomness")
	}
}

func TestChameleonChainRedaction(t *testing.T) {
	key, err := GenerateChameleonKey()
	if err != nil {
		t.Fatal(err)
	}
	c := NewChameleonChain(key)
	for i := 0; i < 10; i++ {
		if _, err := c.Append([]byte(fmt.Sprintf("content-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	// Redact block 4: O(1), chain stays valid, rewrite is undetectable.
	if err := c.Redact(4, []byte("REDACTED")); err != nil {
		t.Fatal(err)
	}
	if err := c.Verify(); err != nil {
		t.Errorf("chain invalid after redaction: %v", err)
	}
	if got := c.blocks[4].Content; string(got) != "REDACTED" {
		t.Errorf("content = %q", got)
	}
	if c.Redactions != 1 {
		t.Errorf("Redactions = %d", c.Redactions)
	}
}

func TestChameleonTrapdoorTrustProblem(t *testing.T) {
	// The trapdoor holder can rewrite ANY block — including data it does
	// not own. The paper's approach requires owner signatures instead.
	key, err := GenerateChameleonKey()
	if err != nil {
		t.Fatal(err)
	}
	c := NewChameleonChain(key)
	if _, err := c.Append([]byte("alice's data")); err != nil {
		t.Fatal(err)
	}
	if err := c.Redact(1, []byte("forged by trapdoor holder")); err != nil {
		t.Fatalf("trapdoor holder blocked: %v", err)
	}
	// Verification CANNOT detect the rewrite.
	if err := c.Verify(); err != nil {
		t.Errorf("undetectability violated: %v", err)
	}
}

func TestChameleonRedactValidation(t *testing.T) {
	key, err := GenerateChameleonKey()
	if err != nil {
		t.Fatal(err)
	}
	c := NewChameleonChain(key)
	if _, err := c.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := c.Redact(0, []byte("y")); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("genesis redact: %v", err)
	}
	if err := c.Redact(7, []byte("y")); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("out of range: %v", err)
	}
	// Verifier-only instance cannot redact.
	verifier := &ChameleonChain{params: &key.Params, blocks: c.blocks}
	if err := verifier.Redact(1, []byte("z")); !errors.Is(err, ErrNoTrapdoor) {
		t.Errorf("no-trapdoor redact: %v", err)
	}
}

func TestChameleonTamperWithoutTrapdoorDetected(t *testing.T) {
	key, err := GenerateChameleonKey()
	if err != nil {
		t.Fatal(err)
	}
	c := NewChameleonChain(key)
	if _, err := c.Append([]byte("honest")); err != nil {
		t.Fatal(err)
	}
	// Rewrite content without finding a collision: detected.
	c.blocks[1].Content = []byte("tampered")
	if err := c.Verify(); err == nil {
		t.Error("naive tampering passed verification")
	}
}

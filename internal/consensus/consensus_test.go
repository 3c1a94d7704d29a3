package consensus

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/codec"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/simclock"
)

func testBlock(num uint64) *block.Block {
	kp := identity.Deterministic("alpha", "consensus-test")
	e := block.NewData("alpha", []byte(fmt.Sprintf("p%d", num))).Sign(kp)
	return block.NewNormal(num, num+1, block.GenesisPrevHash, []*block.Entry{e})
}

func TestNoOpEngine(t *testing.T) {
	var e NoOp
	b := testBlock(1)
	if err := e.Seal(b); err != nil {
		t.Fatal(err)
	}
	if err := e.VerifySeal(b); err != nil {
		t.Fatal(err)
	}
	if e.Name() != "noop" {
		t.Errorf("Name = %q", e.Name())
	}
}

func TestPoWSealAndVerify(t *testing.T) {
	p := NewPoW(10)
	b := testBlock(1)
	if err := p.Seal(b); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if err := p.VerifySeal(b); err != nil {
		t.Errorf("VerifySeal: %v", err)
	}
	if got := leadingZeroBits(b.Hash()); got < 10 {
		t.Errorf("sealed hash has %d leading zero bits", got)
	}
	// Tampering invalidates the seal with overwhelming probability.
	b.Header.Time++
	if err := p.VerifySeal(b); !errors.Is(err, ErrSealInvalid) {
		t.Errorf("tampered block: %v, want ErrSealInvalid", err)
	}
}

func TestPoWExhaustion(t *testing.T) {
	p := &PoW{Bits: 64, MaxIter: 10}
	if err := p.Seal(testBlock(1)); !errors.Is(err, ErrExhausted) {
		t.Errorf("err = %v, want ErrExhausted", err)
	}
}

func TestPoWName(t *testing.T) {
	if got := NewPoW(12).Name(); got != "pow-12" {
		t.Errorf("Name = %q", got)
	}
}

func TestLeadingZeroBits(t *testing.T) {
	var h codec.Hash
	if got := leadingZeroBits(h); got != 256 {
		t.Errorf("all-zero hash: %d, want 256", got)
	}
	h[0] = 0x80
	if got := leadingZeroBits(h); got != 0 {
		t.Errorf("msb set: %d, want 0", got)
	}
	h[0] = 0x01
	if got := leadingZeroBits(h); got != 7 {
		t.Errorf("0x01 first byte: %d, want 7", got)
	}
	h[0] = 0
	h[9] = 0x40
	if got := leadingZeroBits(h); got != 73 {
		t.Errorf("bit 73: %d, want 73", got)
	}
}

func TestQuickPoWMonotonicity(t *testing.T) {
	// Property: a seal valid at difficulty d is valid at all d' <= d.
	p := NewPoW(8)
	f := func(seed uint8) bool {
		b := testBlock(uint64(seed))
		if err := p.Seal(b); err != nil {
			return false
		}
		for d := 0; d <= 8; d++ {
			if err := (&PoW{Bits: d}).VerifySeal(b); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestAuthorityRoundRobin(t *testing.T) {
	auths := []string{"n0", "n1", "n2"}
	a, err := NewAuthority(auths, "n1")
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "poa" {
		t.Errorf("Name = %q", a.Name())
	}
	// n1 leads slots 1, 4, 7, …
	b := testBlock(4)
	if err := a.Seal(b); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if err := a.VerifySeal(b); err != nil {
		t.Errorf("VerifySeal: %v", err)
	}
	// Not the leader for slot 5.
	if err := a.Seal(testBlock(5)); !errors.Is(err, ErrNotLeader) {
		t.Errorf("err = %v, want ErrNotLeader", err)
	}
	// A block claiming the wrong authority index fails verification.
	forged := testBlock(5)
	forged.Header.Nonce = 1 // slot 5 belongs to authority 2
	if err := a.VerifySeal(forged); !errors.Is(err, ErrSealInvalid) {
		t.Errorf("err = %v, want ErrSealInvalid", err)
	}
}

func TestNewAuthorityValidation(t *testing.T) {
	if _, err := NewAuthority(nil, "x"); err == nil {
		t.Error("empty authority set accepted")
	}
	// A non-authority observer can verify but never seal.
	a, err := NewAuthority([]string{"n0"}, "observer")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Seal(testBlock(0)); !errors.Is(err, ErrNotLeader) {
		t.Errorf("observer sealed: %v", err)
	}
}

// sealOne writes one entry through the submission pipeline and returns
// the appended blocks (normal plus any due summary).
func sealOne(t *testing.T, c *chain.Chain, e *block.Entry) []*block.Block {
	t.Helper()
	blocks, err := chain.SealBlocks(context.Background(), c, e)
	if err != nil {
		t.Fatalf("SealBlocks: %v", err)
	}
	return blocks
}

func TestConfigureWiresEngineIntoChain(t *testing.T) {
	reg := identity.NewRegistry()
	kp := identity.Deterministic("alpha", "consensus-test")
	if err := reg.RegisterKey(kp, identity.RoleUser); err != nil {
		t.Fatal(err)
	}
	cfg := chain.Config{
		SequenceLength: 3,
		Registry:       reg,
		Clock:          simclock.NewLogical(0),
	}
	Configure(&cfg, NewPoW(8))
	c, err := chain.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blocks := sealOne(t, c, block.NewData("alpha", []byte("x")).Sign(kp))
	if got := leadingZeroBits(blocks[0].Hash()); got < 8 {
		t.Errorf("committed block not mined: %d bits", got)
	}
	if blocks[1].Header.Nonce != 0 {
		t.Error("summary block was mined (must be computed, not sealed)")
	}
	if err := c.VerifyIntegrity(); err != nil {
		t.Error(err)
	}
}

func TestEngineIndependenceSameSummaries(t *testing.T) {
	// §V-B.3: the extension is independent of the consensus algorithm.
	// Chains driven by different engines see identical summary content
	// apart from the sealed normal-block hashes.
	reg := identity.NewRegistry()
	kp := identity.Deterministic("alpha", "consensus-test")
	if err := reg.RegisterKey(kp, identity.RoleUser); err != nil {
		t.Fatal(err)
	}
	engines := []Engine{NoOp{}, NewPoW(4)}
	var carriedCounts [][]int
	for _, e := range engines {
		cfg := chain.Config{
			SequenceLength: 3,
			MaxSequences:   1,
			Shrink:         chain.ShrinkMinimal,
			Registry:       reg,
			Clock:          simclock.NewLogical(0),
		}
		Configure(&cfg, e)
		c, err := chain.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var counts []int
		for i := 0; i < 8; i++ {
			entry := block.NewData("alpha", []byte(fmt.Sprintf("p%d", i))).Sign(kp)
			blocks := sealOne(t, c, entry)
			if len(blocks) == 2 {
				counts = append(counts, len(blocks[1].Carried))
			}
		}
		carriedCounts = append(carriedCounts, counts)
	}
	if len(carriedCounts[0]) != len(carriedCounts[1]) {
		t.Fatalf("summary counts differ: %v vs %v", carriedCounts[0], carriedCounts[1])
	}
	for i := range carriedCounts[0] {
		if carriedCounts[0][i] != carriedCounts[1][i] {
			t.Errorf("summary %d carried %d vs %d entries across engines",
				i, carriedCounts[0][i], carriedCounts[1][i])
		}
	}
}

func TestQuorumMajority(t *testing.T) {
	q, err := NewQuorum([]string{"a", "b", "c", "d", "e"})
	if err != nil {
		t.Fatal(err)
	}
	if q.Size() != 5 || q.Threshold() != 3 {
		t.Fatalf("Size=%d Threshold=%d", q.Size(), q.Threshold())
	}
	if !q.Contains("c") || q.Contains("stranger") {
		t.Error("Contains disagrees with the member list")
	}
}

func TestQuorumDeduplicatesMembers(t *testing.T) {
	q, err := NewQuorum([]string{"b", "a", "b", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if q.Size() != 2 {
		t.Errorf("Size = %d, want 2", q.Size())
	}
	members := q.Members()
	if members[0] != "a" || members[1] != "b" {
		t.Errorf("Members = %v", members)
	}
	if _, err := NewQuorum(nil); !errors.Is(err, ErrEmptyQuorum) {
		t.Errorf("empty quorum: %v", err)
	}
}

func TestQuorumSingleMember(t *testing.T) {
	q, err := NewQuorum([]string{"solo"})
	if err != nil {
		t.Fatal(err)
	}
	if q.Threshold() != 1 {
		t.Errorf("Threshold = %d", q.Threshold())
	}
}

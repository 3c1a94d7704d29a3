package consensus

import (
	"errors"
	"fmt"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
)

// Errors returned by engines.
var (
	ErrSealInvalid = errors.New("consensus: seal invalid")
	ErrExhausted   = errors.New("consensus: nonce space exhausted")
	ErrNotLeader   = errors.New("consensus: not the slot leader")
)

// Engine seals freshly built normal blocks and verifies seals on blocks
// received from peers.
type Engine interface {
	// Name identifies the engine in logs and experiment tables.
	Name() string
	// Seal finalizes a block in place (e.g. mines a nonce).
	Seal(b *block.Block) error
	// VerifySeal checks that a received block satisfies the engine's
	// sealing rule.
	VerifySeal(b *block.Block) error
}

// Configure wires an engine into a chain.Config, implementing the
// "extending consensus algorithm" step of §V-B.3: the summary-block
// machinery stays in the chain; the engine only touches normal blocks.
func Configure(cfg *chain.Config, e Engine) {
	cfg.Seal = e.Seal
	cfg.VerifySeal = e.VerifySeal
}

// NoOp is the null engine: blocks are valid as built. Used by the pure
// algorithm experiments where consensus cost is out of scope.
type NoOp struct{}

// Name implements Engine.
func (NoOp) Name() string { return "noop" }

// Seal implements Engine.
func (NoOp) Seal(*block.Block) error { return nil }

// VerifySeal implements Engine.
func (NoOp) VerifySeal(*block.Block) error { return nil }

// Authority is a proof-of-authority engine: block α may only be sealed by
// authority number α mod len(authorities) (round-robin). The engine
// records the authority index in the nonce field; authenticity of the
// proposer is enforced by the signed gossip envelope at the network
// layer (see internal/node).
type Authority struct {
	authorities []string
	self        string
	selfIndex   int
}

// NewAuthority creates a proof-of-authority engine for the given ordered
// authority set, sealing on behalf of self. Self must be an authority to
// seal; any instance can verify.
func NewAuthority(authorities []string, self string) (*Authority, error) {
	if len(authorities) == 0 {
		return nil, errors.New("consensus: empty authority set")
	}
	a := &Authority{
		authorities: append([]string(nil), authorities...),
		self:        self,
		selfIndex:   -1,
	}
	for i, name := range authorities {
		if name == self {
			a.selfIndex = i
		}
	}
	return a, nil
}

// Name implements Engine.
func (a *Authority) Name() string { return "poa" }

// Seal implements Engine. It fails when self is not the slot leader.
func (a *Authority) Seal(b *block.Block) error {
	leaderIdx := int(b.Header.Number % uint64(len(a.authorities)))
	if a.selfIndex != leaderIdx {
		return fmt.Errorf("%w: block %d belongs to %q, not %q",
			ErrNotLeader, b.Header.Number, a.authorities[leaderIdx], a.self)
	}
	b.Header.Nonce = uint64(leaderIdx)
	return nil
}

// VerifySeal implements Engine.
func (a *Authority) VerifySeal(b *block.Block) error {
	want := b.Header.Number % uint64(len(a.authorities))
	if b.Header.Nonce != want {
		return fmt.Errorf("%w: block %d sealed by authority %d, slot belongs to %d",
			ErrSealInvalid, b.Header.Number, b.Header.Nonce, want)
	}
	return nil
}

package baseline

import (
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"
)

// This file implements a chameleon-hash redactable blockchain, the
// closest related-work family to the paper (refs [21] Ateniese et al.,
// [22] Camenisch et al., [23] µchain). A chameleon hash is a collision-
// resistant hash with a trapdoor: whoever holds the trapdoor can compute
// collisions, i.e. rewrite a block's content without changing its hash —
// and therefore without breaking the hash chain.
//
// The paper's criticism (§III): these approaches "leave the
// responsibility with the key owners and produce a lot effort". The
// experiments (E10) quantify the per-redaction cost and make the trust
// asymmetry observable: the trapdoor holder can rewrite ANY block
// undetectably, not just entries it owns.
//
// Construction (Krawczyk–Rabin over a Schnorr group):
//
//	CH(m, r) = g^H(m) · y^r  mod p      with y = g^x, trapdoor x
//
// Collision for new message m': r' = r + (H(m) − H(m')) / x  mod q.

// chameleonGroup is the 1024-bit MODP group from RFC 2409 §6.2 (Oakley
// group 2), a safe prime p = 2q+1. Fixed parameters keep the baseline
// deterministic and dependency-free; the security level is irrelevant
// for the cost comparison.
const modp1024Hex = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1" +
	"29024E088A67CC74020BBEA63B139B22514A08798E3404DD" +
	"EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245" +
	"E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED" +
	"EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381" +
	"FFFFFFFFFFFFFFFF"

// ErrNoTrapdoor is returned when a redaction is attempted without the
// trapdoor key.
var ErrNoTrapdoor = errors.New("baseline: chameleon redaction requires the trapdoor")

// ChameleonParams hold the public group and public key.
type ChameleonParams struct {
	P, Q, G, Y *big.Int
}

// ChameleonKey is the trapdoor.
type ChameleonKey struct {
	Params ChameleonParams
	X      *big.Int // trapdoor: y = g^x mod p
}

// GenerateChameleonKey samples a trapdoor over the fixed group.
func GenerateChameleonKey() (*ChameleonKey, error) {
	p, ok := new(big.Int).SetString(modp1024Hex, 16)
	if !ok {
		return nil, errors.New("baseline: bad group constant")
	}
	q := new(big.Int).Rsh(new(big.Int).Sub(p, big.NewInt(1)), 1) // (p-1)/2
	g := big.NewInt(2)
	x, err := rand.Int(rand.Reader, new(big.Int).Sub(q, big.NewInt(2)))
	if err != nil {
		return nil, fmt.Errorf("baseline: sample trapdoor: %w", err)
	}
	x.Add(x, big.NewInt(2)) // x in [2, q)
	y := new(big.Int).Exp(g, x, p)
	return &ChameleonKey{
		Params: ChameleonParams{P: p, Q: q, G: g, Y: y},
		X:      x,
	}, nil
}

// digestToScalar maps a message into Z_q.
func (cp *ChameleonParams) digestToScalar(msg []byte) *big.Int {
	sum := sha256.Sum256(msg)
	return new(big.Int).Mod(new(big.Int).SetBytes(sum[:]), cp.Q)
}

// Hash computes CH(m, r) = g^H(m) · y^r mod p.
func (cp *ChameleonParams) Hash(msg []byte, r *big.Int) *big.Int {
	gm := new(big.Int).Exp(cp.G, cp.digestToScalar(msg), cp.P)
	yr := new(big.Int).Exp(cp.Y, r, cp.P)
	return gm.Mul(gm, yr).Mod(gm, cp.P)
}

// Collide finds r' such that CH(m', r') == CH(m, r), using the trapdoor:
// r' = r + (H(m) − H(m')) / x mod q.
func (ck *ChameleonKey) Collide(oldMsg []byte, r *big.Int, newMsg []byte) (*big.Int, error) {
	if ck.X == nil {
		return nil, ErrNoTrapdoor
	}
	cp := &ck.Params
	diff := new(big.Int).Sub(cp.digestToScalar(oldMsg), cp.digestToScalar(newMsg))
	diff.Mod(diff, cp.Q)
	xInv := new(big.Int).ModInverse(ck.X, cp.Q)
	if xInv == nil {
		return nil, errors.New("baseline: trapdoor not invertible")
	}
	delta := diff.Mul(diff, xInv).Mod(diff, cp.Q)
	return new(big.Int).Mod(new(big.Int).Add(r, delta), cp.Q), nil
}

// ChameleonBlock is a block whose identity is a chameleon hash of its
// content, making it rewritable by the trapdoor holder.
type ChameleonBlock struct {
	Number   uint64
	Content  []byte
	R        *big.Int // randomness of the chameleon hash
	PrevHash *big.Int
	hash     *big.Int // cached CH(content, r)
}

// ChameleonChain is the redactable chain.
type ChameleonChain struct {
	params *ChameleonParams
	key    *ChameleonKey // nil on verifier-only instances
	blocks []*ChameleonBlock
	// Redactions counts trapdoor uses (for the trust discussion: every
	// one is an undetectable rewrite).
	Redactions uint64
}

// NewChameleonChain creates a redactable chain. key may be nil for a
// verifier without redaction capability.
func NewChameleonChain(key *ChameleonKey) *ChameleonChain {
	c := &ChameleonChain{params: &key.Params, key: key}
	genesis := &ChameleonBlock{Number: 0, Content: []byte("genesis"), R: big.NewInt(1), PrevHash: big.NewInt(0)}
	genesis.hash = c.params.Hash(c.blockBytes(genesis), genesis.R)
	c.blocks = append(c.blocks, genesis)
	return c
}

// blockBytes is the hashed portion of a block: number, content, prev.
func (c *ChameleonChain) blockBytes(b *ChameleonBlock) []byte {
	out := make([]byte, 0, 16+len(b.Content)+len(b.PrevHash.Bytes()))
	var num [8]byte
	for i := 0; i < 8; i++ {
		num[i] = byte(b.Number >> (56 - 8*i))
	}
	out = append(out, num[:]...)
	out = append(out, b.Content...)
	out = append(out, b.PrevHash.Bytes()...)
	return out
}

// Append adds a block with fresh randomness.
func (c *ChameleonChain) Append(content []byte) (*ChameleonBlock, error) {
	r, err := rand.Int(rand.Reader, c.params.Q)
	if err != nil {
		return nil, fmt.Errorf("baseline: sample randomness: %w", err)
	}
	head := c.blocks[len(c.blocks)-1]
	b := &ChameleonBlock{
		Number:   head.Number + 1,
		Content:  content,
		R:        r,
		PrevHash: head.hash,
	}
	b.hash = c.params.Hash(c.blockBytes(b), b.R)
	c.blocks = append(c.blocks, b)
	return b, nil
}

// Redact rewrites the content of block num in place, finding a hash
// collision with the trapdoor so every subsequent link stays valid. This
// is O(1) in chain length — but only the trapdoor holder can do it, for
// ANY block, including other users' data.
func (c *ChameleonChain) Redact(num uint64, newContent []byte) error {
	if c.key == nil {
		return ErrNoTrapdoor
	}
	if num == 0 || num >= uint64(len(c.blocks)) {
		return fmt.Errorf("%w: block %d", ErrOutOfRange, num)
	}
	b := c.blocks[num]
	oldBytes := c.blockBytes(b)
	updated := &ChameleonBlock{Number: b.Number, Content: newContent, PrevHash: b.PrevHash}
	newR, err := c.key.Collide(oldBytes, b.R, c.blockBytes(updated))
	if err != nil {
		return err
	}
	b.Content = newContent
	b.R = newR
	b.hash = c.params.Hash(c.blockBytes(b), b.R)
	c.Redactions++
	return nil
}

// Verify checks every chameleon hash and link. A redaction performed
// with the trapdoor passes verification — the rewrite is undetectable,
// which is precisely the trust problem.
func (c *ChameleonChain) Verify() error {
	for i, b := range c.blocks {
		if got := c.params.Hash(c.blockBytes(b), b.R); got.Cmp(b.hash) != 0 {
			return fmt.Errorf("baseline: chameleon hash mismatch at %d", i)
		}
		if i > 0 && b.PrevHash.Cmp(c.blocks[i-1].hash) != 0 {
			return fmt.Errorf("baseline: broken chameleon link at %d", i)
		}
	}
	return nil
}

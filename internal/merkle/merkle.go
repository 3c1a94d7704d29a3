// Package merkle implements binary Merkle trees with inclusion proofs.
//
// Merkle roots serve two purposes in the reproduction:
//
//  1. Each block commits to its entries via a Merkle root, so clients can
//     verify inclusion against anchor nodes without the full block.
//  2. Summary blocks store the Merkle root of a middle sequence ω_{lβ/2}
//     as a redundancy reference (Fig. 9), which is what forces a majority
//     attacker to rewrite at least lβ/2 blocks instead of one.
//
// Leaf and interior hashes use distinct domain-separation prefixes so a
// leaf can never be confused with an interior node (second-preimage
// hardening, as in RFC 6962).
package merkle

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"github.com/seldel/seldel/internal/codec"
)

var (
	// ErrIndexRange is returned for proofs of out-of-range leaves.
	ErrIndexRange = errors.New("merkle: leaf index out of range")
	// ErrEmptyTree is returned when a proof is requested from an empty tree.
	ErrEmptyTree = errors.New("merkle: empty tree has no proofs")
)

const (
	leafPrefix     = 0x00
	interiorPrefix = 0x01
)

// emptyRoot is the root of a tree with zero leaves: H(0x02).
func emptyRoot() codec.Hash {
	return codec.HashBytes([]byte{0x02})
}

// HashLeaf returns the domain-separated hash of a leaf payload.
func HashLeaf(data []byte) codec.Hash {
	h := sha256.New()
	h.Write([]byte{leafPrefix})
	h.Write(data)
	var out codec.Hash
	h.Sum(out[:0])
	return out
}

// hashInterior combines two child hashes.
func hashInterior(left, right codec.Hash) codec.Hash {
	h := sha256.New()
	h.Write([]byte{interiorPrefix})
	h.Write(left[:])
	h.Write(right[:])
	var out codec.Hash
	h.Sum(out[:0])
	return out
}

// Tree is an immutable Merkle tree over a list of leaf payloads.
type Tree struct {
	// levels[0] holds the leaf hashes; levels[len-1] holds the root.
	// An odd node at the end of a level is promoted unchanged (Bitcoin
	// duplicates it instead; promotion avoids the CVE-2012-2459 ambiguity).
	levels [][]codec.Hash
}

// Runner fans independent units of work out: Each runs fn(i) for every
// i in [0, n) and waits for all of them. verify.Pool satisfies it, so
// batch-level tree building forks no wider than the chain's signature
// verification. A nil Runner runs serially.
type Runner interface {
	Each(n int, fn func(int))
}

// parallelThreshold is the leaf count below which fan-out overhead
// exceeds the hashing it saves.
const parallelThreshold = 64

// Build constructs a tree over the given leaf payloads. A nil or empty
// leaf list yields the canonical empty-tree root.
func Build(leaves [][]byte) *Tree { return BuildWith(nil, leaves) }

// BuildWith is Build with the leaf hashing fanned out across r (the
// dominant cost; interior levels halve geometrically and stay serial).
// The resulting tree is identical to Build's.
func BuildWith(r Runner, leaves [][]byte) *Tree {
	if len(leaves) == 0 {
		return &Tree{}
	}
	level := make([]codec.Hash, len(leaves))
	if r != nil && len(leaves) >= parallelThreshold {
		r.Each(len(leaves), func(i int) { level[i] = HashLeaf(leaves[i]) })
	} else {
		for i, l := range leaves {
			level[i] = HashLeaf(l)
		}
	}
	return grow(level)
}

// BuildFromHashes constructs a tree whose leaves are pre-computed hashes
// (already domain-separated by the caller, e.g. block hashes when
// committing to a whole sequence).
func BuildFromHashes(hashes []codec.Hash) *Tree {
	if len(hashes) == 0 {
		return &Tree{}
	}
	level := make([]codec.Hash, len(hashes))
	copy(level, hashes)
	return grow(level)
}

// RootFromHashes returns BuildFromHashes(hashes).Root() without building
// the tree, for callers that read only the root: the levels are reduced
// one after another in a single scratch slice of ⌈n/2⌉ hashes, so it
// never copies the leaves and allocates at most once.
func RootFromHashes(hashes []codec.Hash) codec.Hash {
	switch len(hashes) {
	case 0:
		return emptyRoot()
	case 1:
		return hashes[0]
	}
	// Node i/2 of the next level is written only after nodes i and i+1
	// of this one were read, so every level after the first is reduced in
	// place.
	level := reduce(make([]codec.Hash, (len(hashes)+1)/2), hashes)
	for len(level) > 1 {
		level = reduce(level, level)
	}
	return level[0]
}

// reduce writes the level above level into next, which must have room
// for ⌈len(level)/2⌉ hashes, and returns it: adjacent pairs are combined,
// and an odd node at the end is promoted unchanged.
func reduce(next, level []codec.Hash) []codec.Hash {
	next = next[:(len(level)+1)/2]
	for i := range next {
		if 2*i+1 < len(level) {
			next[i] = hashInterior(level[2*i], level[2*i+1])
		} else {
			next[i] = level[2*i]
		}
	}
	return next
}

// grow reduces a leaf level to the root, recording every level.
func grow(level []codec.Hash) *Tree {
	t := &Tree{levels: [][]codec.Hash{level}}
	for len(level) > 1 {
		level = reduce(make([]codec.Hash, (len(level)+1)/2), level)
		t.levels = append(t.levels, level)
	}
	return t
}

// Len returns the number of leaves.
func (t *Tree) Len() int {
	if len(t.levels) == 0 {
		return 0
	}
	return len(t.levels[0])
}

// Root returns the Merkle root. The empty tree has a well-defined root.
func (t *Tree) Root() codec.Hash {
	if len(t.levels) == 0 {
		return emptyRoot()
	}
	return t.levels[len(t.levels)-1][0]
}

// Proof is an inclusion proof for a single leaf.
type Proof struct {
	// Index is the zero-based position of the proven leaf.
	Index int
	// LeafCount is the total number of leaves in the tree, needed to
	// replay the odd-node promotion rule during verification.
	LeafCount int
	// Siblings are the sibling hashes from leaf level towards the root.
	// Levels where the node had no sibling (odd promotion) are omitted.
	Siblings []codec.Hash
}

// Proof returns the inclusion proof for leaf i.
func (t *Tree) Proof(i int) (Proof, error) {
	n := t.Len()
	if n == 0 {
		return Proof{}, ErrEmptyTree
	}
	if i < 0 || i >= n {
		return Proof{}, fmt.Errorf("%w: %d of %d", ErrIndexRange, i, n)
	}
	p := Proof{Index: i, LeafCount: n}
	idx := i
	for _, level := range t.levels[:len(t.levels)-1] {
		sib := idx ^ 1
		if sib < len(level) {
			p.Siblings = append(p.Siblings, level[sib])
		}
		idx /= 2
	}
	return p, nil
}

// VerifyLeafHash checks a proof for an already-hashed leaf.
func VerifyLeafHash(root codec.Hash, leafHash codec.Hash, p Proof) bool {
	if p.LeafCount <= 0 || p.Index < 0 || p.Index >= p.LeafCount {
		return false
	}
	cur := leafHash
	idx := p.Index
	width := p.LeafCount
	sibUsed := 0
	for width > 1 {
		sib := idx ^ 1
		if sib < width {
			if sibUsed >= len(p.Siblings) {
				return false
			}
			s := p.Siblings[sibUsed]
			sibUsed++
			if idx%2 == 0 {
				cur = hashInterior(cur, s)
			} else {
				cur = hashInterior(s, cur)
			}
		}
		idx /= 2
		width = (width + 1) / 2
	}
	return sibUsed == len(p.Siblings) && cur == root
}

// Verify checks that data is the leaf at p.Index under root.
func Verify(root codec.Hash, data []byte, p Proof) bool {
	return VerifyLeafHash(root, HashLeaf(data), p)
}

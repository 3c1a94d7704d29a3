package attack

import "github.com/seldel/seldel/internal/block"

// RehashedSuffix models an attacker with write access to a node's store
// directory and the patience to re-hash it: it returns a copy of blocks
// in which edit was applied to a clone of blocks[at], that block's body
// was re-committed into its header, and every later block was re-linked
// to its new predecessor. Checksums, Merkle roots and hash links of the
// result are all consistent; what cannot be made consistent without the
// owners' keys is a signature over edited content. That is the boundary
// between the two restore origins: a node opening its own store checks
// bytes and links and so opens such a suffix (Chain.VerifySignatures
// then names the forged entry), while the same suffix offered by a peer
// is verified signature by signature and refused.
func RehashedSuffix(blocks []*block.Block, at int, edit func(*block.Block)) []*block.Block {
	out := make([]*block.Block, len(blocks))
	copy(out, blocks)
	out[at] = out[at].Clone()
	edit(out[at])
	if out[at].IsSummary() {
		out[at].Header.EntriesRoot = block.CarriedRoot(out[at].Carried)
	} else {
		out[at].Header.EntriesRoot = block.EntriesRoot(out[at].Entries)
	}
	for i := at + 1; i < len(out); i++ {
		out[i] = out[i].Clone()
		out[i].Header.PrevHash = out[i-1].Hash()
	}
	return out
}

// ForgeEntry rewrites an entry's payload and breaks its owner signature
// to match: the content an attacker wants on the chain without holding
// the owner's key.
func ForgeEntry(e *block.Entry) {
	e.Payload = []byte("forged")
	e.Signature[0] ^= 0xff
}

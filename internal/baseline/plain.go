// Package baseline implements the comparison systems for the
// experiments: a conventional append-only blockchain (unbounded growth),
// local pruning (ref [20] of the paper), the hard-fork approach
// (ref [21]), and a chameleon-hash redactable chain (refs [21–23]).
//
// None of these achieve what the paper's concept does — global, selective,
// authorized physical deletion — and the experiments quantify the gaps:
// growth (E4), redaction effort and trust (E10).
package baseline

import (
	"errors"
	"fmt"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/codec"
)

// Errors returned by the baselines.
var (
	ErrOutOfRange = errors.New("baseline: block number out of range")
	ErrNoEntry    = errors.New("baseline: entry not found")
)

// PlainChain is a conventional blockchain: append-only, no summary
// blocks, no deletion. Its size grows without bound — the growth problem
// of §I ("Bitcoin … has almost reached a blockchain size of 300 GB").
type PlainChain struct {
	blocks []*block.Block
	bytes  int64
}

// NewPlain creates a plain chain with an empty genesis block.
func NewPlain() *PlainChain {
	genesis := block.NewNormal(0, 1, block.GenesisPrevHash, nil)
	return &PlainChain{
		blocks: []*block.Block{genesis},
		bytes:  int64(genesis.EncodedSize()),
	}
}

// Append adds a block holding the given entries.
func (p *PlainChain) Append(entries []*block.Entry) *block.Block {
	head := p.blocks[len(p.blocks)-1]
	b := block.NewNormal(head.Header.Number+1, head.Header.Time+1, head.Hash(), entries)
	p.blocks = append(p.blocks, b)
	p.bytes += int64(b.EncodedSize())
	return b
}

// Len returns the chain length in blocks.
func (p *PlainChain) Len() int { return len(p.blocks) }

// Bytes returns the total encoded size.
func (p *PlainChain) Bytes() int64 { return p.bytes }

// LocalPrune models pruning as deployed by existing nodes (paper §III:
// "the simple solution of pruning locally stored parts does not solve the
// problem for the global, distributed blockchain"): a node discards old
// block bodies locally but the network as a whole still stores, serves,
// and replicates everything.
type LocalPrune struct {
	chain *PlainChain
	// keepBlocks is the local retention window.
	keepBlocks int
	// localFrom is the first block whose body is still held locally.
	localFrom uint64
	// headers are always kept (header-only sync).
	headerBytes int64
}

// NewLocalPrune wraps a plain chain with a local retention window.
func NewLocalPrune(keep int) *LocalPrune {
	return &LocalPrune{chain: NewPlain(), keepBlocks: keep}
}

// Append adds a block and prunes the local window.
func (l *LocalPrune) Append(entries []*block.Entry) *block.Block {
	b := l.chain.Append(entries)
	l.headerBytes += int64(len(b.Header.Encode()))
	if l.keepBlocks > 0 {
		for int(uint64(l.chain.Len())-l.localFrom) > l.keepBlocks {
			l.localFrom++
		}
	}
	return b
}

// GlobalBytes is what the network still stores — identical to the plain
// chain, because pruning is local only.
func (l *LocalPrune) GlobalBytes() int64 { return l.chain.Bytes() }

// LocalBytes is this node's disk footprint: pruned bodies plus all
// headers.
func (l *LocalPrune) LocalBytes() int64 {
	var bodies int64
	for _, b := range l.chain.blocks[l.localFrom:] {
		bodies += int64(b.EncodedSize())
	}
	return bodies + l.headerBytes
}

// HardFork models deletion by forking: to remove content, the whole
// history from the offending block onward is rebuilt and the network
// migrates to the new chain (§III: "very time inefficient as it can take
// place on every transaction").
type HardFork struct {
	chain *PlainChain
	// RebuiltBlocks counts blocks re-created across all forks (the
	// dominant cost driver).
	RebuiltBlocks uint64
}

// NewHardFork creates the baseline.
func NewHardFork() *HardFork {
	return &HardFork{chain: NewPlain()}
}

// Append adds a block holding the given entries.
func (h *HardFork) Append(entries []*block.Entry) *block.Block {
	return h.chain.Append(entries)
}

// Len returns the chain length.
func (h *HardFork) Len() int { return h.chain.Len() }

// Delete removes the entry at ref by rebuilding every block from ref
// onward (new hashes, new links) — the hard fork. Returns the number of
// rebuilt blocks.
func (h *HardFork) Delete(ref block.Ref) (int, error) {
	if ref.Block >= uint64(len(h.chain.blocks)) || ref.Block == 0 {
		return 0, fmt.Errorf("%w: block %d", ErrOutOfRange, ref.Block)
	}
	target := h.chain.blocks[ref.Block]
	if int(ref.Entry) >= len(target.Entries) {
		return 0, fmt.Errorf("%w: %s", ErrNoEntry, ref)
	}
	rebuilt := 0
	var newBytes int64
	for _, b := range h.chain.blocks[:ref.Block] {
		newBytes += int64(b.EncodedSize())
	}
	prevHash := h.chain.blocks[ref.Block-1].Hash()
	for num := ref.Block; num < uint64(len(h.chain.blocks)); num++ {
		old := h.chain.blocks[num]
		entries := old.Entries
		if num == ref.Block {
			entries = make([]*block.Entry, 0, len(old.Entries)-1)
			for i, e := range old.Entries {
				if uint32(i) != ref.Entry {
					entries = append(entries, e)
				}
			}
		}
		nb := block.NewNormal(old.Header.Number, old.Header.Time, prevHash, entries)
		h.chain.blocks[num] = nb
		prevHash = nb.Hash()
		rebuilt++
		newBytes += int64(nb.EncodedSize())
	}
	h.chain.bytes = newBytes
	h.RebuiltBlocks += uint64(rebuilt)
	return rebuilt, nil
}

// HeadHash returns the current head hash — every hard fork changes it,
// which is exactly why all participants must migrate.
func (h *HardFork) HeadHash() codec.Hash {
	return h.chain.blocks[len(h.chain.blocks)-1].Hash()
}

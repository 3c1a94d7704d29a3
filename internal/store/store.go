// Package store persists the live suffix of a selective-deletion chain.
//
// The paper's central promise is that cut-off sequences are physically
// deleted ("the old sequence can be cut off and deleted from the
// blockchain", §IV-C), so a Store must drop what DeleteBelow cuts.
// There are two: Mem here, for tests and simulations, and the segment
// store (subpackage segment), for disks. Open is the one way a chain
// gets onto either.
package store

import (
	"errors"
	"fmt"
	"iter"
	"sort"
	"sync"

	"github.com/seldel/seldel/internal/block"
)

// Errors returned by stores.
var (
	ErrNotFound = errors.New("store: block not found")
	ErrClosed   = errors.New("store: closed")
)

// Store persists blocks and the Genesis marker.
type Store interface {
	// PutBlock persists a block (idempotent per block number).
	PutBlock(b *block.Block) error
	// DeleteBelow removes every block with number < marker and persists
	// marker as the new Genesis marker.
	DeleteBelow(marker uint64) error
	// Range returns the numbers of the first and last stored block.
	// ok is false when the store is empty.
	Range() (first, last uint64, ok bool, err error)
	// Stream yields the stored blocks in ascending number order, one
	// decoded block at a time, so a restore never materializes the
	// whole persisted chain's raw bytes at once. Iteration stops at
	// the first yielded error. Blocks are parsed, not shape-checked
	// (block.Decode): the consumer, Open's RestoreOwnStream, checks
	// every block's shape, so each is checked once.
	Stream() iter.Seq2[*block.Block, error]
}

// Mem is an in-memory Store, used by simulations and tests.
type Mem struct {
	mu     sync.RWMutex
	blocks map[uint64][]byte
	closed bool
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{blocks: make(map[uint64][]byte)}
}

// PutBlock implements Store.
func (m *Mem) PutBlock(b *block.Block) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.blocks[b.Header.Number] = b.Encode()
	return nil
}

// DeleteBelow implements Store.
func (m *Mem) DeleteBelow(marker uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	for num := range m.blocks {
		if num < marker {
			delete(m.blocks, num)
		}
	}
	return nil
}

// Range implements Store.
func (m *Mem) Range() (uint64, uint64, bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return 0, 0, false, ErrClosed
	}
	if len(m.blocks) == 0 {
		return 0, 0, false, nil
	}
	first, last := ^uint64(0), uint64(0)
	for num := range m.blocks {
		if num < first {
			first = num
		}
		if num > last {
			last = num
		}
	}
	return first, last, true, nil
}

// Stream implements Store. The number/raw snapshot is taken under the
// read lock; decoding happens lazily per yielded block, so consumers
// hold at most one decoded block beyond what they retain themselves.
func (m *Mem) Stream() iter.Seq2[*block.Block, error] {
	return func(yield func(*block.Block, error) bool) {
		m.mu.RLock()
		if m.closed {
			m.mu.RUnlock()
			yield(nil, ErrClosed)
			return
		}
		nums := make([]uint64, 0, len(m.blocks))
		for num := range m.blocks {
			nums = append(nums, num)
		}
		sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
		raws := make([][]byte, len(nums))
		for i, num := range nums {
			raws[i] = m.blocks[num]
		}
		m.mu.RUnlock()
		for i, raw := range raws {
			b, err := block.Decode(raw)
			if err != nil {
				yield(nil, fmt.Errorf("store: block %d: %w", nums[i], err))
				return
			}
			if !yield(b, nil) {
				return
			}
		}
	}
}

// Close implements Store.
func (m *Mem) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.blocks = nil
	return nil
}

// Package store persists the live suffix of a selective-deletion chain.
//
// The paper's central promise is that cut-off sequences are physically
// deleted ("the old sequence can be cut off and deleted from the
// blockchain", §IV-C), so a Store must drop what DeleteBelow cuts.
// The one implementation is the segment store (subpackage segment), for
// disks; a chain without a store lives in memory only. Open is the one
// way a chain gets onto a store.
package store

import (
	"errors"
	"iter"

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

// Package store persists the live suffix of a selective-deletion chain.
//
// The paper's central promise is that cut-off sequences are physically
// deleted ("the old sequence can be cut off and deleted from the
// blockchain", §IV-C), so a Store must drop what DeleteBelowRecord cuts,
// and it must keep the record of every cut: each marker shift, whether
// the chain made the cut itself or adopted a peer's status quo, writes
// one deletion record, so the store's DELETIONS log always covers its
// marker and the resurrection floor outlives the blocks. The one
// implementation is the segment store (subpackage segment), for disks; a
// chain without a store lives in memory only. Open is the one way a
// chain gets onto a store.
package store

import (
	"errors"
	"iter"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/manifest"
)

// Errors returned by stores.
var (
	ErrNotFound = errors.New("store: block not found")
	ErrClosed   = errors.New("store: closed")
)

// Store persists blocks, the Genesis marker and the deletion records
// that moved it.
type Store interface {
	// PutBlock persists a block (idempotent per block number).
	PutBlock(b *block.Block) error
	// DeleteBelowRecord removes every block with number < marker and
	// persists marker as the new Genesis marker, appending rec to the
	// deletion log first, so the record is durable before the shift it
	// describes. The sequence number the log assigns is written back
	// into rec.
	DeleteBelowRecord(marker uint64, rec *manifest.Record) error
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
	// Marker returns the persisted Genesis marker (0 when never
	// truncated).
	Marker() (uint64, error)
	// DeletionRecords returns the persisted deletion records, oldest
	// first.
	DeletionRecords() ([]manifest.Record, error)
	// Sync forces buffered writes to stable storage; group commit
	// resolves receipts after it.
	Sync() error
}

package chain

import (
	"fmt"
	"iter"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/manifest"
)

// Store persists the live suffix of a chain: its blocks, its Genesis
// marker and the deletion records that moved it.
//
// The paper's central promise is that cut-off sequences are physically
// deleted ("the old sequence can be cut off and deleted from the
// blockchain", §IV-C), so a Store must drop what DeleteBelowRecord cuts,
// and it must keep the record of every cut: each marker shift, whether
// the chain made the cut itself or adopted a peer's status quo, writes
// one deletion record, so the store's DELETIONS log always covers its
// marker and the resurrection floor outlives the blocks. The one
// implementation is the segment store (internal/store/segment), for
// disks; a chain without a store lives in memory only.
//
// The chain calls its store itself, on its write path: PutBlock for
// every appended block before any Listener's OnAppend, DeleteBelowRecord
// for every cut on the stage before any OnTruncate, and Sync for group
// commit (DurabilityGroup).
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
	// (block.Decode): the consumer, Open's restore, checks every
	// block's shape, so each is checked once.
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

// Open puts a chain on s: restored from the stored blocks when s holds
// any, created and mirrored into s from genesis otherwise; a nil s is
// New. s is the caller's own store, written by an earlier run of this
// same code, and that is the trust boundary: the restore checks bytes
// and links, not owner signatures (restoreOwnStream). Blocks that came
// from anyone else go through a Restorer instead. Either way the
// store's surviving deletion records seed the chain's tombstones, and
// from then on every append and truncation of the chain is written
// through to s. A write that fails is latched on the chain (ErrStore).
//
// Every call goes through the Store value passed in — never through a
// type unwrapped from it — so a wrapper around a store sees them all.
// The caller keeps ownership of s.
func Open(cfg Config, s Store) (*Chain, error) {
	if s == nil {
		return New(cfg)
	}
	_, _, populated, err := s.Range()
	if err != nil {
		return nil, fmt.Errorf("chain: probing store: %w", err)
	}
	if !populated {
		c, err := newGenesis(cfg)
		if err != nil {
			return nil, err
		}
		if err := c.Attach(s); err != nil {
			c.Close()
			return nil, err
		}
		return c, nil
	}
	// The store is consumed as a stream: each block is decoded, checked
	// and registered before the next is read, so memory stays bounded by
	// the live chain however long the stored suffix.
	c, err := restoreOwnStream(cfg, s.Stream())
	if err != nil {
		return nil, err
	}
	if err := c.mirrorInto(s); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// Attach points s at the chain: the live blocks are backfilled, the
// store's marker is moved up to the chain's, and the chain is mirrored
// into s from then on. Open uses it for an empty store; a node uses it
// to re-point its store at a chain adopted from a peer's snapshot. A
// failure is returned and latched on the chain (ErrStore): the chain
// then holds blocks, or a marker, its store does not.
//
// Moving the marker is a marker shift like any cut, so it writes its
// deletion record: one built from the chain's marker block
// (manifest.MarkerRecord), the anchor the adopted status quo was
// approved on. The record lands before the chain is seeded from the
// log, so the store's resurrection floor covers the adopted marker, and
// the chain's own record numbers continue the log's.
//
// A store whose marker is already ahead of the chain's (its blocks were
// lost but the DELETIONS log survived) keeps it: moving it back would
// resurrect the store's deleted range. The chain's blocks below it are
// not backfilled, and the chain's own marker catches up when it adopts
// a post-deletion status quo.
func (c *Chain) Attach(s Store) error {
	if err := c.attach(s); err != nil {
		c.failStore(fmt.Errorf("attach: %w", err))
		return err
	}
	return nil
}

func (c *Chain) attach(s Store) error {
	stored, err := s.Marker()
	if err != nil {
		return err
	}
	for _, b := range c.Blocks() {
		if b.Header.Number < stored {
			continue
		}
		if err := s.PutBlock(b); err != nil {
			return err
		}
	}
	// The backfill is durable before the chain is mirrored on top of it:
	// the cut syncs it when the marker moves, Sync otherwise.
	if marker := c.Marker(); marker > stored {
		b, ok := c.Block(marker)
		if !ok {
			return fmt.Errorf("chain: attach: chain holds no marker block %d", marker)
		}
		rec := manifest.MarkerRecord(stored, b)
		if err := s.DeleteBelowRecord(marker, &rec); err != nil {
			return err
		}
	} else if err := s.Sync(); err != nil {
		return err
	}
	// The surviving records, the one just written included, arm the
	// chain's resurrection floor, even when the store's blocks are gone.
	return c.mirrorInto(s)
}

// mirrorInto seeds the chain's tombstones with s's persisted deletion
// records, so audits and the sync resurrection floor survive the
// restart that erased the blocks they describe, and makes s the store
// every later append and cut is written to.
func (c *Chain) mirrorInto(s Store) error {
	recs, err := s.DeletionRecords()
	if err != nil {
		return err
	}
	c.seedTombstones(recs)
	c.mu.Lock()
	c.store = s
	c.mu.Unlock()
	return nil
}

// storeBlocks writes appended blocks to s, the chain's store when they
// were appended. Nothing more is written after a failure, since the
// store would have a gap.
func (c *Chain) storeBlocks(s Store, blocks []*block.Block) {
	if s == nil {
		return
	}
	for _, b := range blocks {
		if c.StoreErr() != nil {
			return
		}
		if err := s.PutBlock(b); err != nil {
			c.failStore(fmt.Errorf("put block %d: %w", b.Header.Number, err))
		}
	}
}

// storeCut writes a cut and its deletion record to s. The record is
// passed by copy so the store's sequence write-back never aliases chain
// state.
func (c *Chain) storeCut(s Store, ev Event) {
	if s == nil || c.StoreErr() != nil {
		return
	}
	rec := *ev.Record
	if err := s.DeleteBelowRecord(ev.NewMarker, &rec); err != nil {
		c.failStore(fmt.Errorf("delete below %d: %w", ev.NewMarker, err))
	}
}

// syncStore is the group commit's sync. A sync that succeeds after a
// failed write synced nothing, so the latch is read after it.
func (c *Chain) syncStore() error {
	c.mu.RLock()
	s := c.store
	c.mu.RUnlock()
	if s == nil {
		// A chain a failed Attach left without its store: nothing
		// makes its receipts durable.
		return fmt.Errorf("%w: no store attached", ErrStore)
	}
	if err := s.Sync(); err != nil {
		return err
	}
	return c.StoreErr()
}

// failStore latches err as the chain's persistence failure; only the
// first call counts. A chain that kept going past that point would
// report as sealed (or durable) blocks the disk does not hold. From then
// on the chain appends nothing, the batch being sealed and every later
// Submit resolve with the error (wrapping ErrStore), and Close returns
// it.
func (c *Chain) failStore(err error) {
	err = fmt.Errorf("%w: %w", ErrStore, err)
	c.storeErr.CompareAndSwap(nil, &err)
}

// StoreErr returns the latched persistence failure, or nil.
func (c *Chain) StoreErr() error {
	if p := c.storeErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Durable hands a sealed batch's receipt resolution to the chain's
// durability contract (Config.Durability), for a batcher sealing onto
// this chain — its own submission pipeline or a node's proposal
// pipeline. Under DurabilitySeal it resolves at once with the
// store-failure latch: the batch's blocks went to the store before the
// seal returned, so a failed write is visible. Under DurabilityGroup it
// queues the resolution on the stage, behind the batch's block, and the
// next group sync resolves it with its error.
func (c *Chain) Durable(resolve func(error)) {
	if c.cfg.Durability.Mode == DurabilityGroup {
		c.stage.push(stageItem{resolve: resolve})
		return
	}
	resolve(c.StoreErr())
}

package store

import (
	"fmt"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/manifest"
)

// Open puts a chain on s: restored from the stored blocks when s holds
// any, created and mirrored into s from genesis otherwise. s is the
// caller's own store, written by an earlier run of this same code, and
// that is the trust boundary: the restore checks bytes and links, not
// owner signatures (chain.RestoreOwnStream). Blocks that came from
// anyone else go through a chain.Restorer instead. Either way
// the store's surviving deletion records seed the chain's tombstones,
// and from then on every append and truncation of the chain is written
// through to s. A write that fails is latched on the chain
// (chain.ErrStore). With DurabilityGroup and no Sync configured, the
// store's Sync is used.
//
// Every call goes through the Store value passed in — never through a
// type unwrapped from it — so a wrapper around a store sees them all.
// The caller keeps ownership of s.
func Open(cfg chain.Config, s Store) (*chain.Chain, error) {
	if cfg.Durability.Mode == chain.DurabilityGroup && cfg.Durability.Sync == nil {
		cfg.Durability.Sync = s.Sync
	}
	_, _, populated, err := s.Range()
	if err != nil {
		return nil, fmt.Errorf("store: probing: %w", err)
	}
	if !populated {
		c, err := chain.New(cfg)
		if err != nil {
			return nil, err
		}
		if err := Attach(c, s); err != nil {
			c.Close()
			return nil, err
		}
		return c, nil
	}
	// The store is consumed as a stream: each block is decoded, checked
	// and registered before the next is read, so memory stays bounded by
	// the live chain however long the stored suffix.
	c, err := chain.RestoreOwnStream(cfg, s.Stream())
	if err != nil {
		return nil, err
	}
	if err := seedTombstones(c, s); err != nil {
		c.Close()
		return nil, err
	}
	c.AddListener(recorder{c, s})
	return c, nil
}

// Attach points s at a chain that already exists: the live blocks are
// backfilled, the store's marker is moved up to the chain's, and the
// chain is mirrored into s from then on. Open uses it for an empty
// store; a node uses it to re-point its store at an adopted chain.
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
func Attach(c *chain.Chain, s Store) error {
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
			return fmt.Errorf("store: attach: chain holds no marker block %d", marker)
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
	if err := seedTombstones(c, s); err != nil {
		return err
	}
	c.AddListener(recorder{c, s})
	return nil
}

// seedTombstones replays the store's persisted deletion records into
// the restored chain, so audits and the sync resurrection floor survive
// the restart that erased the blocks they describe.
func seedTombstones(c *chain.Chain, s Store) error {
	recs, err := s.DeletionRecords()
	if err != nil {
		return err
	}
	c.SeedTombstones(recs)
	return nil
}

// recorder is the chain.Listener that mirrors every chain mutation into
// a Store: appended blocks are persisted, truncations delete the cut
// prefix and write its record. Listener callbacks have no error return,
// so the first failure is latched on the chain, which stops resolving
// receipts; nothing more is written after it, since the store would
// have a gap.
type recorder struct {
	chain *chain.Chain
	store Store
}

// OnAppend implements chain.Listener.
func (r recorder) OnAppend(b *block.Block) {
	if r.chain.StoreErr() != nil {
		return
	}
	if err := r.store.PutBlock(b); err != nil {
		r.chain.FailStore(fmt.Errorf("put block %d: %w", b.Header.Number, err))
	}
}

// OnTruncate implements chain.Listener. The chain calls OnTruncateEvent
// instead, whose event carries the record a cut must write.
func (recorder) OnTruncate(_, _ uint64) {}

// OnTruncateEvent implements chain.TruncateEventListener: the cut and
// its deletion record reach the store in one operation. The record is
// passed by copy so the store's sequence write-back never aliases chain
// state.
func (r recorder) OnTruncateEvent(ev chain.Event) {
	if r.chain.StoreErr() != nil {
		return
	}
	rec := *ev.Record
	if err := r.store.DeleteBelowRecord(ev.NewMarker, &rec); err != nil {
		r.chain.FailStore(fmt.Errorf("delete below %d: %w", ev.NewMarker, err))
	}
}

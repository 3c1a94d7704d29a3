package store

import (
	"errors"
	"fmt"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/compact"
	"github.com/seldel/seldel/internal/manifest"
)

// deletionRecorder is the optional store capability behind the durable
// deletion manifest: stores implementing it (the segment store) persist
// the audit record atomically with the marker shift.
type deletionRecorder interface {
	DeleteBelowRecord(marker uint64, rec *manifest.Record) error
}

// deletionSource is the optional store capability of recovering
// previously persisted deletion records, used to re-seed a restored
// chain's tombstone index.
type deletionSource interface {
	DeletionRecords() ([]manifest.Record, error)
}

// markerSource is the optional store capability of reporting its
// persisted Genesis marker.
type markerSource interface {
	Marker() (uint64, error)
}

// syncer is the optional store capability of forcing buffered writes
// to stable storage, which group commit needs.
type syncer interface {
	Sync() error
}

// Open puts a chain on s: restored from the stored blocks when s holds
// any, created and mirrored into s from genesis otherwise. s is the
// caller's own store, written by an earlier run of this same code, and
// that is the trust boundary: the restore checks bytes and links, not
// owner signatures (chain.RestoreOwnStream). Blocks that came from
// anyone else go through chain.RestoreStream instead. Either way
// the store's surviving deletion records seed the chain's tombstones,
// and from then on every append and truncation of the chain is written
// through to s. A write that fails is latched on the chain
// (chain.ErrStore). With DurabilityGroup and no Sync configured, the
// store's own Sync is used.
//
// Every call goes through the Store value passed in — never through a
// type unwrapped from it — so a wrapper around a store sees them all.
// The caller keeps ownership of s.
func Open(cfg chain.Config, s Store) (*chain.Chain, error) {
	if cfg.Durability.Mode == chain.DurabilityGroup && cfg.Durability.Sync == nil {
		sy, ok := s.(syncer)
		if !ok {
			return nil, fmt.Errorf("%w: DurabilityGroup requires a store implementing Sync() error, such as the segment store", chain.ErrConfig)
		}
		cfg.Durability.Sync = sy.Sync
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
// backfilled, everything below the chain's marker is deleted, and the
// chain is mirrored into s from then on. Open uses it for an empty
// store; a node uses it to re-point its store at an adopted chain.
func Attach(c *chain.Chain, s Store) error {
	for _, b := range c.Blocks() {
		if err := s.PutBlock(b); err != nil {
			return err
		}
	}
	// A store whose persisted marker is already AHEAD of the chain's
	// (blocks were lost but the DELETIONS log survived, rolling the
	// marker forward at Open) must keep it: moving it back would
	// resurrect the store's deleted range, and the segment store
	// rejects backwards moves anyway. The chain's own marker catches
	// up when it adopts a post-deletion status quo.
	target := c.Marker()
	if ms, ok := s.(markerSource); ok {
		if m, err := ms.Marker(); err == nil && m > target {
			target = m
		}
	}
	if err := s.DeleteBelow(target); err != nil {
		return err
	}
	// A store directory can outlive its block files (an operator wiped
	// segments but kept the DELETIONS audit log): the surviving records
	// must still arm the fresh chain's resurrection floor.
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
	ds, ok := s.(deletionSource)
	if !ok {
		return nil
	}
	recs, err := ds.DeletionRecords()
	if err != nil {
		return err
	}
	c.SeedTombstones(recs)
	return nil
}

// recorder is the chain.Listener that mirrors every chain mutation into
// a Store: appended blocks are persisted, truncations delete the cut
// prefix. Listener callbacks have no error return, so the first failure
// is latched on the chain, which stops resolving receipts; nothing more
// is written after it, since the store would have a gap.
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

// OnTruncate implements chain.Listener; the chain calls OnTruncateEvent.
func (r recorder) OnTruncate(_, newMarker uint64) {
	r.OnTruncateEvent(compact.Event{NewMarker: newMarker})
}

// OnTruncateEvent implements chain.TruncateEventListener: when the
// event carries a deletion record and the store can persist one, the
// record is written durably in the same operation as the prune. The
// record is passed by copy so the store's sequence write-back never
// aliases chain state; a store whose DELETIONS log is further along
// than the chain's numbering (a reattached chain over an older dir)
// gets the record renumbered rather than dropped.
func (r recorder) OnTruncateEvent(ev compact.Event) {
	if r.chain.StoreErr() != nil {
		return
	}
	var err error
	if dr, ok := r.store.(deletionRecorder); ok && ev.Record != nil {
		rec := *ev.Record
		err = dr.DeleteBelowRecord(ev.NewMarker, &rec)
		if errors.Is(err, manifest.ErrSeqOrder) {
			rec = *ev.Record
			rec.Seq = 0 // let the log assign its own next sequence
			err = dr.DeleteBelowRecord(ev.NewMarker, &rec)
		}
	} else {
		err = r.store.DeleteBelow(ev.NewMarker)
	}
	if err != nil {
		r.chain.FailStore(fmt.Errorf("delete below %d: %w", ev.NewMarker, err))
	}
}

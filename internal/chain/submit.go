package chain

import (
	"context"
	"fmt"
	"iter"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/mempool"
)

// Submit enqueues entries into the chain's submission pipeline and
// returns one Receipt per entry, in order. Entries from many concurrent
// callers are coalesced into full blocks by a single flusher (flushing
// when the batch reaches 256 entries or when the submission stream goes
// idle, after an adaptive linger under load), so Submit is the
// concurrency-safe write path: concurrent Submits never race each other
// for the head block.
//
// Each receipt resolves once its entry's block is sealed and appended —
// to the entry's stable Ref, block number, and block hash — or to a
// per-entry validation error. Entries of a single call are always sealed
// together in the same block. Submit blocks only while the pipeline
// intake is full; pass a cancellable ctx to bound that wait. After Close,
// Submit returns mempool.ErrClosed.
func (c *Chain) Submit(ctx context.Context, entries ...*block.Entry) ([]mempool.Receipt, error) {
	// Fast path: the batcher, once started, is read lock-free; a closed
	// batcher answers ErrClosed itself.
	if b := c.pipe.Load(); b != nil {
		return b.Submit(ctx, entries...)
	}
	b, err := c.pipeline()
	if err != nil {
		return nil, err
	}
	return b.Submit(ctx, entries...)
}

// SubmitWait submits entries and blocks until every receipt resolves,
// returning the sealed results in submission order. It fails fast on the
// first per-entry error.
func (c *Chain) SubmitWait(ctx context.Context, entries ...*block.Entry) ([]mempool.Sealed, error) {
	receipts, err := c.Submit(ctx, entries...)
	if err != nil {
		return nil, err
	}
	out := make([]mempool.Sealed, len(receipts))
	for i, r := range receipts {
		s, err := r.Wait(ctx)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// SealBlocks is the deterministic drivers' synchronous write: it seals
// entries through the submission pipeline (SubmitWait) and returns the
// blocks that flush appended — the normal block holding the entries
// plus the directly following summary block, if that slot was due.
// Single-threaded callers (experiments, scenario tests, examples) get
// one block per call with exactly their entries; with concurrent
// writers only the block actually holding the entries is guaranteed to
// be theirs. Not part of the public façade — applications use
// Submit/SubmitWait and receipts.
func SealBlocks(ctx context.Context, c *Chain, entries ...*block.Entry) ([]*block.Block, error) {
	sealed, err := c.SubmitWait(ctx, entries...)
	if err != nil {
		return nil, err
	}
	if len(sealed) == 0 {
		return nil, nil
	}
	normal, ok := c.Block(sealed[0].Block)
	if !ok {
		return nil, fmt.Errorf("chain: sealed block %d no longer live", sealed[0].Block)
	}
	out := []*block.Block{normal}
	if summary, ok := c.Block(normal.Header.Number + 1); ok && summary.IsSummary() {
		out = append(out, summary)
	}
	return out, nil
}

// pipeline lazily starts the batcher on first use.
func (c *Chain) pipeline() (*mempool.Batcher, error) {
	c.pipeMu.Lock()
	defer c.pipeMu.Unlock()
	if b := c.pipe.Load(); b != nil {
		return b, nil
	}
	if c.pipeClosed {
		return nil, mempool.ErrClosed
	}
	opts := mempool.Options{
		// Pre-verify submissions while their batch assembles, so the
		// sealing commit resolves the signatures from the verified-
		// signature cache instead of re-paying Ed25519 for each.
		Warm: func(entries []*block.Entry) <-chan struct{} {
			return c.cfg.Verifier.Warm(c.cfg.Registry, entries)
		},
	}
	// A sealed batch resolves with the store-failure latch: its blocks
	// went through the store listeners before Seal returned, so a write
	// that failed is visible here.
	opts.Durable = func(resolve func(error)) { resolve(c.StoreErr()) }
	if c.cfg.Durability.Mode == DurabilityGroup {
		// Group commit: sealed batches hand their receipt resolution to
		// the committer, which shares one store fsync across everything
		// sealed since the previous sync. A sync that succeeds after a
		// failed write synced nothing, so the latch is read after it.
		syncStore := func() error {
			if err := c.cfg.Durability.Sync(); err != nil {
				return err
			}
			return c.StoreErr()
		}
		c.gc = newGroupCommitter(syncStore, c.cfg.Durability.GroupWindow)
		opts.Durable = c.gc.enqueue
	}
	b := mempool.NewBatcher(sealer{c}, opts)
	c.pipe.Store(b)
	return b, nil
}

// sealer adapts the chain's unexported sealing primitive to the
// pipeline's Ledger interface without exporting a synchronous commit
// on Chain itself.
type sealer struct{ c *Chain }

// Seal implements mempool.Ledger. After a store failure nothing more is
// sealed: the pipeline then asks ValidateEntries which entries to
// reject, and that answers with the same error for every one.
func (s sealer) Seal(entries []*block.Entry) ([]*block.Block, []mempool.MarkOutcome, error) {
	if err := s.c.StoreErr(); err != nil {
		return nil, nil, err
	}
	return s.c.commit(entries)
}

// ValidateEntries implements mempool.Ledger.
func (s sealer) ValidateEntries(entries []*block.Entry) error {
	if err := s.c.StoreErr(); err != nil {
		return err
	}
	return s.c.ValidateEntries(entries)
}

// PipelineStats returns the submission pipeline's cumulative counters
// and backpressure gauges: intake-queue depth/capacity, the adaptive
// linger currently applied, the verifier's curve work and cache
// effectiveness, and the background compactor's progress
// (pending truncations, blocks/bytes physically reclaimed). The
// counters survive Close, so shutdown reports see the final totals;
// the verify and compaction snapshots are filled even before the first
// Submit. Note the verify gauges describe the chain's POOL: when
// several chains share one (the default verify.Shared()), they include
// the other chains' traffic too — give a chain its own pool via
// Config.Verifier to isolate its numbers.
func (c *Chain) PipelineStats() mempool.Stats {
	var s mempool.Stats
	if b := c.pipe.Load(); b != nil {
		s = b.Stats()
	}
	s.Verify = c.cfg.Verifier.Stats()
	c.mu.RLock()
	s.Index = mempool.IndexStats{
		Live:     len(c.ledger.byRef),
		Peak:     c.ledger.peak,
		Rebuilds: c.ledger.rebuilds,
	}
	c.mu.RUnlock()
	// Never truncated: the zero snapshot, without starting the
	// compactor goroutine for a pure read.
	if k := c.comp.Load(); k != nil {
		s.Compaction = k.Stats()
	}
	return s
}

// Close shuts down the submission pipeline and the background
// compactor, in that order: in-flight submissions are still sealed and
// their receipts resolve, then the flusher exits; pending truncations
// are compacted (stores pruned), then the compactor exits. Subsequent
// Submit calls return mempool.ErrClosed; reads, AppendBlock/AppendEmpty,
// and PipelineStats keep working (late truncations compact inline).
// Close is idempotent, and concurrent Close calls all block until the
// drain completes. It returns the store failure latched by FailStore,
// if any: the chain then holds blocks, or a marker, its store does not.
func (c *Chain) Close() error {
	c.pipeMu.Lock()
	c.pipeClosed = true
	b := c.pipe.Load()
	c.pipeMu.Unlock()
	var err error
	if b != nil {
		err = b.Close()
	}
	// The committer closes after the batcher has fully drained: its
	// queue then holds every not-yet-durable batch, and Close issues
	// their final sync before the owned store shuts down below.
	c.pipeMu.Lock()
	gc := c.gc
	c.pipeMu.Unlock()
	if gc != nil {
		gc.Close()
	}
	c.compMu.Lock()
	c.compClosed = true
	k := c.comp.Load()
	c.compMu.Unlock()
	if k != nil {
		k.Close()
	}
	// Owned resources (stores opened by the façade on the caller's
	// behalf) close last, after the compactor's final store pruning:
	// this is where a segment store syncs its active tail and persists
	// its manifest.
	c.ownMu.Lock()
	owned := c.owned
	c.owned = nil
	c.ownMu.Unlock()
	for _, r := range owned {
		if cerr := r.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = c.StoreErr()
	}
	return err
}

// BlocksSeq streams the live blocks in order without copying the whole
// live slice up front: the block pointers are snapshotted under the read
// lock, then yielded lock-free, so consumers may call any chain method
// (or break early) mid-iteration.
func (c *Chain) BlocksSeq() iter.Seq[*block.Block] {
	return func(yield func(*block.Block) bool) {
		for _, b := range c.snapshotBlocks() {
			if !yield(b) {
				return
			}
		}
	}
}

// EntriesSeq streams every live entry with its stable reference: entries
// of normal blocks (data, deletion requests, temporaries) and entries
// carried into summary blocks, in chain order. Like BlocksSeq it
// snapshots under the read lock and yields lock-free. Use IsMarked to
// filter entries that are logically forgotten but not yet physically
// deleted.
func (c *Chain) EntriesSeq() iter.Seq2[block.Ref, *block.Entry] {
	return func(yield func(block.Ref, *block.Entry) bool) {
		for _, b := range c.snapshotBlocks() {
			if b.IsSummary() {
				for _, ce := range b.Carried {
					if !yield(ce.Ref(), ce.Entry) {
						return
					}
				}
				continue
			}
			num := b.Header.Number
			for i, e := range b.Entries {
				if !yield(block.Ref{Block: num, Entry: uint32(i)}, e) {
					return
				}
			}
		}
	}
}

func (c *Chain) snapshotBlocks() []*block.Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*block.Block, len(c.blocks))
	copy(out, c.blocks)
	return out
}

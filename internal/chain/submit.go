package chain

import (
	"context"
	"fmt"
	"iter"
	"runtime"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/mempool"
)

// Submit enqueues entries into the chain's submission pipeline and
// returns one Receipt per entry, in order. Entries from many concurrent
// callers are coalesced into blocks by a single flusher: a block holds
// the oldest queued submission and those queued behind it whose
// signatures have already verified, up to 256 entries. So Submit is the
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
// first per-entry error. Receipts resolve before the flusher seals the
// summary block their block left due, so when that slot is due
// SubmitWait waits for it too: when it returns, the chain is where the
// flush left it, which is what synchronous callers read next.
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
	if len(out) > 0 && c.isSummarySlot(out[0].Block+1) {
		if err := c.awaitSummary(ctx, out[0].Block+1); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SealBlocks is the deterministic drivers' synchronous write: it seals
// entries through the submission pipeline (SubmitWait, which waits for
// a due summary block too) and returns the blocks that flush appended —
// the normal block holding the entries plus the directly following
// summary block, if that slot was due. Single-threaded callers
// (experiments, scenario tests, examples) get one block per call with
// exactly their entries; with concurrent writers only the block
// actually holding the entries is guaranteed to be theirs. Not part of
// the public façade — applications use Submit/SubmitWait and receipts.
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

// awaitSummary waits until block num, the summary slot after a batch
// whose receipts resolved, is appended, or the flusher has finished the
// summary step after that batch, which appends it.
func (c *Chain) awaitSummary(ctx context.Context, num uint64) error {
	c.stepMu.Lock()
	if c.summaryStep == nil {
		c.summaryStep = make(chan struct{})
	}
	step := c.summaryStep
	c.stepMu.Unlock()
	// Checked after the channel is taken: a step that ends from here on
	// closes it.
	if c.NextNumber() > num {
		return nil
	}
	select {
	case <-step:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
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
	b := mempool.NewBatcher(sealer{c}, mempool.Options{
		// Pre-verify submissions while their batch assembles, so the
		// sealing commit resolves the signatures from the verified-
		// signature cache instead of re-paying Ed25519 for each.
		Warm: func(entries []*block.Entry) <-chan struct{} {
			return c.cfg.Verifier.Warm(c.cfg.Registry, entries)
		},
		Durable: c.Durable,
	})
	c.pipe.Store(b)
	return b, nil
}

// sealer adapts the chain's sealing primitive to the pipeline's Ledger
// interface.
type sealer struct{ c *Chain }

// Seal implements mempool.Ledger: it appends the batch's normal block
// only, and AfterResolve the summary block it leaves due. After a store
// failure the chain appends nothing more: the pipeline then asks
// ValidateEntries which entries to reject, and that answers with the
// same error for every one.
func (s sealer) Seal(entries []*block.Entry) ([]*block.Block, []mempool.MarkOutcome, error) {
	normal, outcomes, err := s.c.CommitNormal(entries)
	if err != nil {
		return nil, nil, err
	}
	return []*block.Block{normal}, outcomes, nil
}

// AfterResolve implements mempool.PostResolver: once the batch's
// receipts resolved — its block appended and stored — the summary block
// it left due is sealed, before the flusher collects the next batch.
// So the write that closes a sequence does not wait for Σ's build, its
// store record or the truncation it stages. Then a SubmitWait waiting
// for that Σ is woken.
//
// When Σ cut the chain, the flusher seals nothing more until the stage
// has executed that cut. A store ends a segment with every
// Σ, and the cut starts the next one together with the fsyncs it
// pays anyway; the block after Σ, stored first, would pay a roll of
// its own on the writer's path.
func (s sealer) AfterResolve() {
	defer s.c.endSummaryStep()
	if !s.c.NextIsSummary() {
		return
	}
	// The receipts just woke their waiters onto this processor: let
	// them reply before Σ's build takes it.
	runtime.Gosched()
	marker := s.c.Marker()
	// A lost race leaves Σ to its winner (AppendEmpty beside the
	// pipeline), and a store failure is latched on the chain: neither is
	// this batch's to report.
	_, _ = s.c.sealSummaries()
	if s.c.Marker() != marker {
		_ = s.c.CompactWait(context.Background())
	}
}

// endSummaryStep wakes the callers awaitSummary has waiting on the
// flusher's summary step.
func (c *Chain) endSummaryStep() {
	c.stepMu.Lock()
	if c.summaryStep != nil {
		close(c.summaryStep)
		c.summaryStep = nil
	}
	c.stepMu.Unlock()
}

// ValidateEntries implements mempool.Ledger.
func (s sealer) ValidateEntries(entries []*block.Entry) error {
	return s.c.ValidateEntries(entries)
}

// PipelineStats returns the submission pipeline's cumulative counters
// and backpressure gauges: intake-queue depth/capacity, the verifier's
// curve work and cache effectiveness, and the stage's truncation
// progress (pending cuts, blocks/bytes physically reclaimed). The
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
	s.Compaction = c.stage.snapshot()
	return s
}

// Close shuts down the submission pipeline, drains the stage and closes
// owned stores, in that order: in-flight submissions are still sealed,
// then the flusher exits; the stage's queued syncs and cuts run (stores
// pruned, receipts resolved). Subsequent Submit calls return
// mempool.ErrClosed; reads, AppendBlock/AppendEmpty, and PipelineStats
// keep working (a late truncation still runs on the stage).
// Close is idempotent, and concurrent Close calls all block until the
// drain completes. It returns the store failure latched on the chain,
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
	// The stage closes after the batcher has fully drained: its queue
	// then holds every not-yet-durable batch and every pending cut, and
	// they run before the owned store shuts down below.
	c.stage.close()
	// Owned resources (stores opened by the façade on the caller's
	// behalf) close last, after the stage's final store pruning:
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

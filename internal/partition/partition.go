// Package partition shards the selective-deletion chain's write path
// across N independent sub-chains — the PatChain model adapted to the
// paper's summary-block geometry. Each partition runs the full existing
// pipeline (its own mempool batcher, sealer, carried-entry ledger,
// compactor, and segment-store directory) behind one shared verify
// pool, so Submit throughput scales with partition count instead of
// serializing on a single chain mutex.
//
// Global integrity survives the split through two mechanisms. First,
// block numbers are striped: partition i numbers its blocks from
// i·Stride(l), so every entry Ref stays globally unique and the owning
// partition of any Ref is Ref.Block / Stride(l). Second, every
// truncation anchors the partition's head — height, head hash, current
// Σ summary hash, and a running digest chain over its deletion records
// — into a lightweight spine chain, so a deletion proof issued by one
// partition verifies against a cross-partition commitment (see Proof).
//
// Entries route by consistent hash (jump hash over 64-bit FNV-1a) of a
// partition key, the entry Owner by default, so one participant's data
// and the deletion requests that target it land on the same partition.
// Deletion requests route by their target's stripe, making fan-out a
// single-partition operation.
package partition

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"os"
	"sort"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/compact"
	"github.com/seldel/seldel/internal/manifest"
	"github.com/seldel/seldel/internal/mempool"
	"github.com/seldel/seldel/internal/store"
	"github.com/seldel/seldel/internal/store/segment"
)

// Config parameterizes a partitioned chain.
type Config struct {
	// Partitions is the number of sub-chains (≥ 1).
	Partitions int
	// Chain is the per-partition chain configuration template.
	// BaseBlock is overwritten per partition (i·Stride(l)); everything
	// else applies to every partition. A nil Verifier resolves to the
	// shared pool — either way all partitions verify through the same
	// pool. A nil Clock gives each partition its own logical clock.
	Chain chain.Config
	// Key extracts the partition key from a non-deletion entry; nil
	// routes by Entry.Owner. Deletion entries ignore it and route by
	// their target's block stripe.
	Key func(*block.Entry) string
	// Dir, when non-empty, persists each partition into a segment
	// store under Dir/p000, Dir/p001, ... with a PARTITIONS metadata
	// file at the root. Populated partition stores are restored.
	Dir string
	// Segment configures the per-partition segment stores (Dir only).
	Segment segment.Options
	// Listeners are registered on every partition chain.
	Listeners []chain.Listener
}

// Chain is a partitioned selective-deletion chain: N sub-chains behind
// a router plus the spine that cross-links their heads. All methods are
// safe for concurrent use.
type Chain struct {
	cfg    Config
	stride uint64
	keyFn  func(*block.Entry) string
	parts  []*chain.Chain
	spine  *spine
}

// New builds a partitioned chain. With cfg.Dir set, per-partition
// segment stores are opened (or created) under it; partitions that
// already hold blocks are restored, and the spine is re-seeded from
// their durable deletion manifests before the initial anchor.
func New(cfg Config) (*Chain, error) {
	if cfg.Partitions < 1 {
		return nil, fmt.Errorf("%w: partitions must be ≥ 1, got %d", chain.ErrConfig, cfg.Partitions)
	}
	if cfg.Chain.SequenceLength == 0 {
		cfg.Chain.SequenceLength = 3
	}
	if cfg.Chain.SequenceLength < 2 {
		return nil, fmt.Errorf("%w: sequence length must be ≥ 2", chain.ErrConfig)
	}
	if cfg.Chain.Durability.Mode == chain.DurabilityGroup && cfg.Dir == "" {
		return nil, fmt.Errorf("%w: group durability needs per-partition stores (set Dir)", chain.ErrConfig)
	}
	stride := Stride(cfg.Chain.SequenceLength)
	pc := &Chain{
		cfg:    cfg,
		stride: stride,
		keyFn:  cfg.Key,
		spine:  newSpine(cfg.Partitions),
	}
	if pc.keyFn == nil {
		pc.keyFn = func(e *block.Entry) string { return e.Owner }
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("partition: create root: %w", err)
		}
		want := meta{
			Partitions:     cfg.Partitions,
			Stride:         stride,
			SequenceLength: cfg.Chain.SequenceLength,
		}
		if err := loadOrInitMeta(cfg.Dir, want); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.Partitions; i++ {
		c, err := pc.openPartition(i)
		if err != nil {
			pc.closeParts()
			return nil, fmt.Errorf("partition %d: %w", i, err)
		}
		pc.parts = append(pc.parts, c)
	}
	// Seed the spine's record trackers from whatever deletion records
	// the partitions already carry (restored manifests), then seal the
	// genesis spine block anchoring every partition's starting state.
	anchors := make([]Anchor, cfg.Partitions)
	pc.spine.mu.Lock()
	for p, c := range pc.parts {
		recs, err := c.Tombstones(context.Background())
		if err != nil {
			pc.spine.mu.Unlock()
			pc.closeParts()
			return nil, fmt.Errorf("partition %d: seed spine: %w", p, err)
		}
		t := pc.spine.trackers[p]
		for j := range recs {
			t.ingest(recordDigest(&recs[j]))
		}
		a := pc.anchorState(p)
		a.Records = t.count()
		a.RecordChain = t.prefix[a.Records]
		anchors[p] = a
	}
	pc.spine.appendLocked(anchors)
	pc.spine.mu.Unlock()
	// Anchor listeners go on last, so the genesis spine block above is
	// unambiguously first and restore replay cannot race it.
	for p, c := range pc.parts {
		c.AddListener(&anchorListener{pc: pc, p: p})
	}
	return pc, nil
}

// openPartition builds (or restores) sub-chain i with its block-number
// stripe and, when Dir is set, its segment store.
func (pc *Chain) openPartition(i int) (*chain.Chain, error) {
	cc := pc.cfg.Chain
	cc.BaseBlock = uint64(i) * pc.stride
	if pc.cfg.Dir == "" {
		c, err := chain.New(cc)
		if err != nil {
			return nil, err
		}
		for _, l := range pc.cfg.Listeners {
			c.AddListener(l)
		}
		return c, nil
	}
	s, err := segment.Open(subdirPath(pc.cfg.Dir, i), pc.cfg.Segment)
	if err != nil {
		return nil, err
	}
	cc.Durability.Sync = nil // each stripe syncs its own store
	c, err := store.Open(cc, s)
	if err != nil {
		s.Close()
		return nil, err
	}
	c.Own(s)
	for _, l := range pc.cfg.Listeners {
		c.AddListener(l)
	}
	return c, nil
}

func subdirPath(root string, p int) string {
	return root + string(os.PathSeparator) + subdirName(p)
}

func (pc *Chain) closeParts() {
	for _, c := range pc.parts {
		c.Close()
	}
}

// anchorListener turns every truncation of one partition into a spine
// anchor, so each deletion record is bracketed by an anchor sealed
// after it. OnTruncateEvent runs on the partition's compactor goroutine
// with no chain lock held; it snapshots the chain state before taking
// the spine lock, keeping the lock order acyclic.
type anchorListener struct {
	pc *Chain
	p  int
}

func (a *anchorListener) OnAppend(*block.Block)  {}
func (a *anchorListener) OnTruncate(_, _ uint64) {}
func (a *anchorListener) OnTruncateEvent(ev compact.Event) {
	if ev.Record == nil {
		return
	}
	a.pc.anchorAfterTruncate(a.p, *ev.Record)
}

var _ chain.Listener = (*anchorListener)(nil)
var _ chain.TruncateEventListener = (*anchorListener)(nil)

// anchorAfterTruncate folds rec into partition p's record chain and
// seals a spine block anchoring p's post-truncation head.
func (pc *Chain) anchorAfterTruncate(p int, rec manifest.Record) {
	st := pc.anchorState(p)
	d := recordDigest(&rec)
	pc.spine.mu.Lock()
	defer pc.spine.mu.Unlock()
	t := pc.spine.trackers[p]
	t.ingest(d)
	st.Records = t.count()
	st.RecordChain = t.prefix[st.Records]
	pc.spine.appendLocked([]Anchor{st})
}

// anchorState snapshots partition p's anchorable head state. Records
// and RecordChain are filled by the caller under the spine lock.
func (pc *Chain) anchorState(p int) Anchor {
	c := pc.parts[p]
	a := Anchor{
		Partition: p,
		Marker:    c.Marker(),
		HeadHash:  c.HeadHash(),
		Floor:     c.ResurrectionFloor(),
	}
	a.Head = c.Head().Number
	if mb, ok := c.Block(a.Marker); ok {
		a.SummaryHash = mb.Hash()
	}
	return a
}

// syncPartition folds every deletion record partition p has sealed into
// the spine (waiting out pending compactions first) and, when new
// records arrived since the last anchor, seals a fresh anchor covering
// them. It is the on-demand complement to the truncation listener:
// after it returns, every record of p is anchored.
func (pc *Chain) syncPartition(ctx context.Context, p int) error {
	recs, err := pc.parts[p].Tombstones(ctx)
	if err != nil {
		return err
	}
	st := pc.anchorState(p)
	pc.spine.mu.Lock()
	defer pc.spine.mu.Unlock()
	t := pc.spine.trackers[p]
	for i := range recs {
		t.ingest(recordDigest(&recs[i]))
	}
	if t.count() > pc.spine.anchored[p] {
		st.Records = t.count()
		st.RecordChain = t.prefix[st.Records]
		pc.spine.appendLocked([]Anchor{st})
	}
	return nil
}

// Partitions returns the number of sub-chains.
func (pc *Chain) Partitions() int { return len(pc.parts) }

// StrideWidth returns the block-number stripe width between partitions.
func (pc *Chain) StrideWidth() uint64 { return pc.stride }

// Part exposes sub-chain p for inspection (per-partition stats, head,
// rendering). Mutating through it bypasses the router; don't.
func (pc *Chain) Part(p int) *chain.Chain { return pc.parts[p] }

// Route returns the partition an entry would be submitted to: the
// target's block stripe for deletion requests, the consistent hash of
// the partition key otherwise.
func (pc *Chain) Route(e *block.Entry) int {
	if e.Kind == block.KindDeletion && !e.Target.IsZero() {
		if p := int(e.Target.Block / pc.stride); p < len(pc.parts) {
			return p
		}
		// A target outside every stripe cannot exist anywhere; route it
		// to the last partition, whose validation rejects it normally.
		return len(pc.parts) - 1
	}
	return jumpHash(hashKey(pc.keyFn(e)), len(pc.parts))
}

// Owner returns the partition owning block-number ref, or -1 when the
// stripe is out of range.
func (pc *Chain) Owner(ref block.Ref) int {
	if p := int(ref.Block / pc.stride); p < len(pc.parts) {
		return p
	}
	return -1
}

// Submit routes entries to their partitions and submits each group
// through that partition's pipeline, returning receipts in the original
// entry order. Unlike the single chain, entries of one call are NOT
// guaranteed to seal in the same block once they route to different
// partitions. On error, groups already handed to earlier partitions
// stay submitted; their receipts are lost with the error.
func (pc *Chain) Submit(ctx context.Context, entries ...*block.Entry) ([]mempool.Receipt, error) {
	if len(pc.parts) == 1 {
		return pc.parts[0].Submit(ctx, entries...)
	}
	groups := pc.group(entries)
	out := make([]mempool.Receipt, len(entries))
	for p, idx := range groups {
		if len(idx) == 0 {
			continue
		}
		sub := make([]*block.Entry, len(idx))
		for j, k := range idx {
			sub[j] = entries[k]
		}
		recs, err := pc.parts[p].Submit(ctx, sub...)
		if err != nil {
			return nil, fmt.Errorf("partition %d: %w", p, err)
		}
		for j, r := range recs {
			out[idx[j]] = r
		}
	}
	return out, nil
}

// SubmitWait routes entries like Submit and waits for every receipt,
// returning seal results in the original entry order.
func (pc *Chain) SubmitWait(ctx context.Context, entries ...*block.Entry) ([]mempool.Sealed, error) {
	if len(pc.parts) == 1 {
		return pc.parts[0].SubmitWait(ctx, entries...)
	}
	groups := pc.group(entries)
	out := make([]mempool.Sealed, len(entries))
	var firstErr error
	for p, idx := range groups {
		if len(idx) == 0 {
			continue
		}
		sub := make([]*block.Entry, len(idx))
		for j, k := range idx {
			sub[j] = entries[k]
		}
		sealed, err := pc.parts[p].SubmitWait(ctx, sub...)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("partition %d: %w", p, err)
			}
			continue
		}
		for j, s := range sealed {
			out[idx[j]] = s
		}
	}
	return out, firstErr
}

// group maps entries to per-partition index lists (original positions).
func (pc *Chain) group(entries []*block.Entry) [][]int {
	groups := make([][]int, len(pc.parts))
	for i, e := range entries {
		p := pc.Route(e)
		groups[p] = append(groups[p], i)
	}
	return groups
}

// EntriesSeq iterates all live entries across partitions, partition 0
// first, chain order within each partition. References remain globally
// unique thanks to block striping.
func (pc *Chain) EntriesSeq() iter.Seq2[block.Ref, *block.Entry] {
	return func(yield func(block.Ref, *block.Entry) bool) {
		for _, c := range pc.parts {
			for ref, e := range c.EntriesSeq() {
				if !yield(ref, e) {
					return
				}
			}
		}
	}
}

// EntriesAfter is the ordered seek across partitions (see
// chain.Chain.EntriesAfter). Striping already orders refs by partition,
// so the seek starts in the partition owning the cursor and spills into
// the following ones from their start. Each partition's share is
// snapshot-consistent; the partitions are read one after the other.
func (pc *Chain) EntriesAfter(after block.Ref, haveCursor bool, limit int, skipMarked bool) []chain.RefEntry {
	p := uint64(0)
	if haveCursor {
		p = after.Block / pc.stride
	}
	var out []chain.RefEntry
	for ; p < uint64(len(pc.parts)) && len(out) < limit; p++ {
		out = append(out, pc.parts[p].EntriesAfter(after, haveCursor, limit-len(out), skipMarked)...)
		haveCursor = false
	}
	return out
}

// Tombstones returns the deletion records of every partition merged
// into one audit stream, ordered by (logical time, old marker). The
// owning partition of any record is recoverable as
// OldMarker / StrideWidth().
func (pc *Chain) Tombstones(ctx context.Context) ([]manifest.Record, error) {
	var all []manifest.Record
	for p, c := range pc.parts {
		recs, err := c.Tombstones(ctx)
		if err != nil {
			return nil, fmt.Errorf("partition %d: %w", p, err)
		}
		all = append(all, recs...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Time != all[j].Time {
			return all[i].Time < all[j].Time
		}
		return all[i].OldMarker < all[j].OldMarker
	})
	return all, nil
}

// ResurrectionFloors returns each partition's sync resurrection floor,
// indexed by partition.
func (pc *Chain) ResurrectionFloors() []uint64 {
	floors := make([]uint64, len(pc.parts))
	for p, c := range pc.parts {
		floors[p] = c.ResurrectionFloor()
	}
	return floors
}

// Stats sums the per-partition chain statistics; every chain.Stats
// field is a count, so the merge is additive across partitions.
func (pc *Chain) Stats() chain.Stats {
	var out chain.Stats
	for _, c := range pc.parts {
		s := c.Stats()
		out.LiveBlocks += s.LiveBlocks
		out.LiveBytes += s.LiveBytes
		out.LiveEntries += s.LiveEntries
		out.CarriedEntries += s.CarriedEntries
		out.AppendedBlocks += s.AppendedBlocks
		out.CutBlocks += s.CutBlocks
		out.ActiveMarks += s.ActiveMarks
		out.ForgottenEntries += s.ForgottenEntries
		out.ExpiredEntries += s.ExpiredEntries
		out.RejectedRequests += s.RejectedRequests
	}
	return out
}

// PipelineStats merges the per-partition submission-pipeline snapshots;
// see mergePipelineStats for the per-gauge semantics.
func (pc *Chain) PipelineStats() mempool.Stats {
	all := make([]mempool.Stats, len(pc.parts))
	for p, c := range pc.parts {
		all[p] = c.PipelineStats()
	}
	return mergePipelineStats(all)
}

// CompactWait blocks until every partition's pending compactions are
// physically executed (or ctx is cancelled).
func (pc *Chain) CompactWait(ctx context.Context) error {
	for p, c := range pc.parts {
		if err := c.CompactWait(ctx); err != nil {
			return fmt.Errorf("partition %d: %w", p, err)
		}
	}
	return nil
}

// AnchorAll folds every partition's deletion records into the spine and
// seals one spine block anchoring all current heads — the periodic
// anchor for deployments that want fresh head commitments between
// truncations.
func (pc *Chain) AnchorAll(ctx context.Context) error {
	// Wait for pending truncation records first, so the combined anchor
	// covers them.
	for p, c := range pc.parts {
		if err := c.CompactWait(ctx); err != nil {
			return fmt.Errorf("partition %d: %w", p, err)
		}
	}
	anchors := make([]Anchor, len(pc.parts))
	states := make([]Anchor, len(pc.parts))
	recs := make([][]manifest.Record, len(pc.parts))
	for p, c := range pc.parts {
		rs, err := c.Tombstones(ctx)
		if err != nil {
			return fmt.Errorf("partition %d: %w", p, err)
		}
		recs[p] = rs
		states[p] = pc.anchorState(p)
	}
	pc.spine.mu.Lock()
	defer pc.spine.mu.Unlock()
	for p := range pc.parts {
		t := pc.spine.trackers[p]
		for i := range recs[p] {
			t.ingest(recordDigest(&recs[p][i]))
		}
		a := states[p]
		a.Records = t.count()
		a.RecordChain = t.prefix[a.Records]
		anchors[p] = a
	}
	pc.spine.appendLocked(anchors)
	return nil
}

// SpineBlocks returns a copy of the spine chain, genesis first.
func (pc *Chain) SpineBlocks() []SpineBlock { return pc.spine.snapshot() }

// SpineHead returns the newest spine block.
func (pc *Chain) SpineHead() SpineBlock {
	blocks := pc.spine.snapshot()
	return blocks[len(blocks)-1]
}

// VerifyIntegrity re-validates every partition chain and the spine:
// per-partition hash links and summaries, spine hash links, and every
// anchor's record chain against the observed record stream.
func (pc *Chain) VerifyIntegrity() error {
	for p, c := range pc.parts {
		if err := c.VerifyIntegrity(); err != nil {
			return fmt.Errorf("partition %d: %w", p, err)
		}
	}
	return pc.spine.verify()
}

// VerifySignatures runs the signature audit of chain.VerifySignatures
// over every partition chain: the check a reopen from the partitions'
// own stores leaves out. The spine holds no signed entries.
func (pc *Chain) VerifySignatures() error {
	for p, c := range pc.parts {
		if err := c.VerifySignatures(); err != nil {
			return fmt.Errorf("partition %d: %w", p, err)
		}
	}
	return nil
}

// Close drains and closes every partition (pipelines, compactors, and
// owned stores), returning the first error.
func (pc *Chain) Close() error {
	var firstErr error
	for p, c := range pc.parts {
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("partition %d: %w", p, err)
		}
	}
	return firstErr
}

// errProofState signals an internal inconsistency while assembling a
// partitioned proof (never expected after a successful syncPartition).
var errProofState = errors.New("partition: proof assembly state inconsistent")

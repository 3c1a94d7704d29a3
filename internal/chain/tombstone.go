package chain

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/manifest"
	"github.com/seldel/seldel/internal/merkle"
)

// This file is the chain side of the deletion manifest: every executed
// truncation seals one manifest.Record while the cut blocks are still
// reachable (applyPlanLocked), the chain retains the records as its
// tombstone index, and auditors query them through Tombstones and
// ProveDeleted. The records double as the resurrection floor consulted
// by sync (ResurrectionFloor): no honest offer may contain blocks below
// a recorded deletion.

// ErrNotDeleted is returned by ProveDeleted when the entry is still
// live (or marked but not yet physically erased).
var ErrNotDeleted = errors.New("chain: entry has not been deleted")

// tombstoneLocked records the erasure of one marked entry during a
// truncation sweep: the entry's content digest is resolved from the cut
// prefix (still aliased by cutBlocks) and the authorizing co-signatures
// from the deletion request entry, which may itself sit in the cut
// prefix or still be live. Callers hold the write lock.
func (c *Chain) tombstoneLocked(m Mark, loc Location, cutBlocks []*block.Block, oldMarker uint64) {
	t := manifest.Tombstone{
		Target:        m.Target,
		Requester:     m.Requester,
		RequestRef:    m.RequestRef,
		MarkedAtBlock: m.MarkedAtBlock,
	}
	if b := blockIn(cutBlocks, oldMarker, loc.Block); b != nil {
		var e *block.Entry
		if loc.Carried {
			if loc.Index < len(b.Carried) {
				e = b.Carried[loc.Index].Entry
			}
		} else if loc.Index < len(b.Entries) {
			e = b.Entries[loc.Index]
		}
		if e != nil {
			t.EntryDigest = e.Hash()
		}
	}
	if !m.RequestRef.IsZero() {
		rb := blockIn(cutBlocks, oldMarker, m.RequestRef.Block)
		if rb == nil {
			if live, ok := c.blockAt(m.RequestRef.Block); ok {
				rb = live
			}
		}
		if rb != nil && int(m.RequestRef.Entry) < len(rb.Entries) {
			if req := rb.Entries[m.RequestRef.Entry]; req.Kind == block.KindDeletion {
				for _, cs := range req.CoSigners {
					t.CoSigners = append(t.CoSigners, manifest.CoSigner{
						Name:      cs.Name,
						Signature: append([]byte(nil), cs.Signature...),
					})
				}
			}
		}
	}
	c.pendingTombs = append(c.pendingTombs, t)
}

// blockIn resolves block number num from the aliased cut prefix whose
// first block is oldMarker; nil when num lies outside it.
func blockIn(cutBlocks []*block.Block, oldMarker, num uint64) *block.Block {
	if num < oldMarker || num >= oldMarker+uint64(len(cutBlocks)) {
		return nil
	}
	return cutBlocks[num-oldMarker]
}

// sealDeletionRecordLocked finalizes the deletion record of the
// truncation that just executed: the marker shift [old, c.marker), the
// summary block that replaced the cut (the head — applyPlanLocked runs
// right after pushBlock appended it), the digests of the cut range's
// boundary blocks, and the tombstones the sweep accumulated. The record
// is retained in the chain's tombstone index and returned for the
// compact event, so persistent stores write the identical record
// durably; pendingTombs holds exactly the marks the sweep executed.
func (c *Chain) sealDeletionRecordLocked(old uint64, cutBlocks []*block.Block) *manifest.Record {
	head := c.head()
	tombs := c.pendingTombs
	c.pendingTombs = nil
	// The sweep iterates a map; order the tombstones by target so every
	// honest node seals a bit-identical record.
	sort.Slice(tombs, func(i, j int) bool { return refLess(tombs[i].Target, tombs[j].Target) })
	rec := manifest.Record{
		Seq:          c.nextTombSeq,
		OldMarker:    old,
		NewMarker:    c.marker,
		SummaryBlock: head.Header.Number,
		SummaryHash:  head.Hash(),
		Time:         head.Header.Time,
		Tombstones:   tombs,
	}
	if len(cutBlocks) > 0 {
		rec.FirstCutHash = cutBlocks[0].Hash()
		rec.LastCutHash = cutBlocks[len(cutBlocks)-1].Hash()
	}
	c.nextTombSeq++
	c.tombRecs = append(c.tombRecs, rec)
	for _, t := range tombs {
		c.tombIndex[t.Target] = len(c.tombRecs) - 1
	}
	if rec.NewMarker > c.tombFloor {
		c.tombFloor = rec.NewMarker
	}
	out := rec
	return &out
}

// refLess orders entry references by (block, entry) — the origin order
// carried entries keep inside summary blocks.
func refLess(a, b block.Ref) bool {
	if a.Block != b.Block {
		return a.Block < b.Block
	}
	return a.Entry < b.Entry
}

// SeedTombstones installs deletion records recovered from a persistent
// store (its DELETIONS log) into the chain's tombstone index, so a
// restored chain answers audits for — and refuses resurrection of —
// deletions that executed in earlier lifetimes. Records already seeded
// or sealed are kept; recs only extends.
func (c *Chain) SeedTombstones(recs []manifest.Record) {
	if len(recs) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	sorted := append([]manifest.Record(nil), recs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Seq < sorted[j].Seq })
	for _, r := range sorted {
		c.tombRecs = append(c.tombRecs, r)
		for _, t := range r.Tombstones {
			c.tombIndex[t.Target] = len(c.tombRecs) - 1
		}
		if r.NewMarker > c.tombFloor {
			c.tombFloor = r.NewMarker
		}
		if r.Seq >= c.nextTombSeq {
			c.nextTombSeq = r.Seq + 1
		}
	}
}

// Tombstones returns the chain's deletion records, oldest first. It
// waits for pending compactions first, so a caller that just observed a
// truncation sees its record with the matching store state (stores
// pruned, audit log written).
func (c *Chain) Tombstones(ctx context.Context) ([]manifest.Record, error) {
	if err := c.CompactWait(ctx); err != nil {
		return nil, err
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]manifest.Record(nil), c.tombRecs...), nil
}

// TombstoneHead returns the most recent deletion record, if any.
func (c *Chain) TombstoneHead() (manifest.Record, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.tombRecs) == 0 {
		return manifest.Record{}, false
	}
	return c.tombRecs[len(c.tombRecs)-1], true
}

// ResurrectionFloor returns the highest NewMarker across the chain's
// deletion records: the boundary below which no block may re-enter via
// sync, whatever a peer claims. 0 when no deletion was ever recorded.
func (c *Chain) ResurrectionFloor() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tombFloor
}

// DeletedProof is the auditor-facing evidence that an entry was
// deliberately erased: the deletion record covering its origin, its
// tombstone (requester, co-signers, content digest), and — when the
// summary block that replaced the cut was still live at proof time — a
// Merkle non-inclusion bracket showing the entry was NOT carried
// forward: its origin-ordered neighbors in the summary's carried set,
// adjacent by index, both proven against the summary header's
// EntriesRoot. Together with the record's summary hash this shows the
// erasure was the chain's decision, not data loss.
type DeletedProof struct {
	// Ref is the erased entry's origin reference.
	Ref block.Ref
	// Record is the deletion record whose range covers Ref.
	Record manifest.Record
	// Tombstone is Ref's tombstone within Record.
	Tombstone manifest.Tombstone
	// SummaryHeader is the header of the summary block Record points
	// at; nil when that block was no longer live at proof time (the
	// record alone remains the evidence).
	SummaryHeader *block.Header
	// CarriedCount is the number of carried entries in that summary.
	CarriedCount int
	// LeftLeaf/LeftProof prove the greatest carried entry with origin
	// ref < Ref (absent when Ref precedes the whole carried set);
	// RightLeaf/RightProof the smallest with origin ref > Ref (absent
	// when Ref follows it). Leaves are canonical carried encodings.
	LeftLeaf   []byte
	LeftProof  *merkle.Proof
	RightLeaf  []byte
	RightProof *merkle.Proof
}

// ProveDeleted builds the deletion proof for ref. Fails with
// ErrNotDeleted when the entry is still live and ErrNotFound when no
// tombstone covers it (never existed, expired, or predates the
// manifest).
func (c *Chain) ProveDeleted(ref block.Ref) (*DeletedProof, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	i, ok := c.tombIndex[ref]
	if !ok {
		if _, live := c.index[ref]; live {
			return nil, fmt.Errorf("%w: %s is live", ErrNotDeleted, ref)
		}
		return nil, fmt.Errorf("%w: no tombstone for %s", ErrNotFound, ref)
	}
	rec := c.tombRecs[i]
	tomb, ok := rec.FindTombstone(ref)
	if !ok {
		return nil, fmt.Errorf("chain: tombstone index inconsistent for %s", ref)
	}
	p := &DeletedProof{Ref: ref, Record: rec, Tombstone: tomb}
	sum, ok := c.blockAt(rec.SummaryBlock)
	if !ok || !sum.IsSummary() || sum.Hash() != rec.SummaryHash {
		return p, nil
	}
	p.SummaryHeader = &sum.Header
	p.CarriedCount = len(sum.Carried)
	// Carried entries are origin-ordered, so non-inclusion is an
	// adjacency bracket: the first carried ref past the target on the
	// right, its predecessor on the left.
	right := sort.Search(len(sum.Carried), func(j int) bool {
		return refLess(ref, sum.Carried[j].Ref())
	})
	left := right - 1
	if left >= 0 && !refLess(sum.Carried[left].Ref(), ref) {
		// The target itself is carried: it was never erased.
		return nil, fmt.Errorf("%w: %s is carried in summary %d", ErrNotDeleted, ref, rec.SummaryBlock)
	}
	// Both bracket proofs come from one tree: building it re-encodes and
	// re-hashes every carried entry, under the read lock.
	tree := sum.EntryTree()
	if right < len(sum.Carried) {
		proof, err := tree.Proof(right)
		if err != nil {
			return nil, fmt.Errorf("chain: deleted proof: %w", err)
		}
		p.RightLeaf = sum.Carried[right].Encode()
		p.RightProof = &proof
	}
	if left >= 0 {
		proof, err := tree.Proof(left)
		if err != nil {
			return nil, fmt.Errorf("chain: deleted proof: %w", err)
		}
		p.LeftLeaf = sum.Carried[left].Encode()
		p.LeftProof = &proof
	}
	return p, nil
}

// Verify checks the proof's internal consistency: the record covers the
// reference, the tombstone matches, and — when the summary bracket is
// present — the header hashes to the record's summary hash and the
// bracket proves the entry absent from the carried set. It needs no
// chain: the proof is self-contained against the recorded summary hash.
func (p *DeletedProof) Verify() error {
	// The record's range covers the origin block — or the origin
	// predates it entirely: an entry carried forward through summaries
	// is erased when its carrier is cut, so its origin ref can sit
	// below OldMarker. What can never happen is a tombstone for a block
	// at or above the record's new marker (not yet cut).
	if p.Ref.Block >= p.Record.NewMarker {
		return fmt.Errorf("chain: proof record [%d,%d) cannot tombstone %s (at or above the new marker)",
			p.Record.OldMarker, p.Record.NewMarker, p.Ref)
	}
	if p.Tombstone.Target != p.Ref {
		return fmt.Errorf("chain: proof tombstone targets %s, not %s", p.Tombstone.Target, p.Ref)
	}
	if rt, ok := p.Record.FindTombstone(p.Ref); !ok || rt.Requester != p.Tombstone.Requester {
		return fmt.Errorf("chain: proof tombstone not in record")
	}
	if p.SummaryHeader == nil {
		return nil // record-only proof: nothing further to check
	}
	h := p.SummaryHeader
	if h.Hash() != p.Record.SummaryHash {
		return fmt.Errorf("chain: proof summary header does not hash to the recorded summary")
	}
	if h.Number != p.Record.SummaryBlock {
		return fmt.Errorf("chain: proof summary number %d, record says %d", h.Number, p.Record.SummaryBlock)
	}
	if p.CarriedCount == 0 {
		if p.LeftProof != nil || p.RightProof != nil {
			return fmt.Errorf("chain: bracket proofs on an empty carried set")
		}
		if h.EntriesRoot != merkle.Build(nil).Root() {
			return fmt.Errorf("chain: summary claims entries but proof claims none")
		}
		return nil
	}
	var left, right *block.CarriedEntry
	if p.LeftProof != nil {
		ce, err := block.DecodeCarried(p.LeftLeaf)
		if err != nil {
			return fmt.Errorf("chain: left bracket leaf: %w", err)
		}
		left = &ce
		if !refLess(ce.Ref(), p.Ref) {
			return fmt.Errorf("chain: left bracket %s not before %s", ce.Ref(), p.Ref)
		}
		if p.LeftProof.LeafCount != p.CarriedCount {
			return fmt.Errorf("chain: left bracket leaf count mismatch")
		}
		if !merkle.Verify(h.EntriesRoot, p.LeftLeaf, *p.LeftProof) {
			return fmt.Errorf("chain: left bracket proof invalid")
		}
	}
	if p.RightProof != nil {
		ce, err := block.DecodeCarried(p.RightLeaf)
		if err != nil {
			return fmt.Errorf("chain: right bracket leaf: %w", err)
		}
		right = &ce
		if !refLess(p.Ref, ce.Ref()) {
			return fmt.Errorf("chain: right bracket %s not after %s", ce.Ref(), p.Ref)
		}
		if p.RightProof.LeafCount != p.CarriedCount {
			return fmt.Errorf("chain: right bracket leaf count mismatch")
		}
		if !merkle.Verify(h.EntriesRoot, p.RightLeaf, *p.RightProof) {
			return fmt.Errorf("chain: right bracket proof invalid")
		}
	}
	switch {
	case left != nil && right != nil:
		if p.RightProof.Index != p.LeftProof.Index+1 {
			return fmt.Errorf("chain: bracket not adjacent (%d, %d)", p.LeftProof.Index, p.RightProof.Index)
		}
	case left != nil:
		if p.LeftProof.Index != p.CarriedCount-1 {
			return fmt.Errorf("chain: open right bracket but left index %d is not last", p.LeftProof.Index)
		}
	case right != nil:
		if p.RightProof.Index != 0 {
			return fmt.Errorf("chain: open left bracket but right index %d is not first", p.RightProof.Index)
		}
	default:
		return fmt.Errorf("chain: bracket missing both sides on a non-empty carried set")
	}
	return nil
}

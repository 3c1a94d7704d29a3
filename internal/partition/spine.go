package partition

import (
	"encoding/json"
	"fmt"
	"sync"

	"github.com/seldel/seldel/internal/codec"
	"github.com/seldel/seldel/internal/manifest"
)

// Anchor is one partition's state commitment inside a spine block: the
// partition's head, its current Σ summary (the block at the Genesis
// marker), and a running digest chain over its deletion records. A
// partitioned ProveDeleted ties the per-partition deletion record into
// RecordChain, so the proof verifies against the spine without access
// to the partition itself.
type Anchor struct {
	// Partition is the anchored partition's index.
	Partition int `json:"partition"`
	// Marker is the partition's Genesis marker at anchor time.
	Marker uint64 `json:"marker"`
	// Head is the partition's head block number.
	Head uint64 `json:"head"`
	// HeadHash is the hash of that head block.
	HeadHash codec.Hash `json:"head_hash"`
	// SummaryHash is the hash of the block at Marker — the partition's
	// current Σ summary (its genesis before any truncation).
	SummaryHash codec.Hash `json:"summary_hash"`
	// Records is the number of deletion records folded into RecordChain.
	Records uint64 `json:"records"`
	// RecordChain is the running digest chain over the partition's
	// deletion records, oldest first: chain₀ = 0³², chainₙ =
	// H(chainₙ₋₁ ‖ H(recordₙ)).
	RecordChain codec.Hash `json:"record_chain"`
	// Floor is the partition's sync resurrection floor.
	Floor uint64 `json:"floor"`
}

// SpineBlock is one block of the spine chain: a hash-linked batch of
// partition anchors. The spine is in-memory, append-only, and rebuilt
// on restart from the partitions' durable deletion manifests, so it
// carries no payload of its own — it exists to give cross-partition
// proofs a single head hash to verify against.
type SpineBlock struct {
	// Number is the spine block's height, starting at 0.
	Number uint64 `json:"number"`
	// PrevHash links to the previous spine block (zero for block 0).
	PrevHash codec.Hash `json:"prev_hash"`
	// Anchors are the partition commitments this block seals.
	Anchors []Anchor `json:"anchors"`
}

// Hash returns the spine block's content hash.
func (b SpineBlock) Hash() codec.Hash {
	raw, err := json.Marshal(b)
	if err != nil {
		// Marshalling a struct of integers and hashes cannot fail.
		panic(fmt.Sprintf("partition: spine block marshal: %v", err))
	}
	return codec.HashBytes(raw)
}

// recordDigest is the leaf digest of one deletion record inside an
// anchor's RecordChain: the hash of its canonical encoding, the bytes
// the DELETIONS log stores.
func recordDigest(rec *manifest.Record) codec.Hash {
	return codec.HashBytes(rec.Encode())
}

// recTracker accumulates one partition's deletion-record digests in the
// order they were observed. Tracking is positional rather than keyed by
// the record's manifest sequence number, because doctor repairs can
// rewrite the on-disk log with renumbered sequences — positions in the
// observed stream stay stable.
type recTracker struct {
	// digests holds the record digests, oldest first.
	digests []codec.Hash
	// prefix[i] is the digest chain after folding i records;
	// prefix[0] is the zero hash.
	prefix []codec.Hash
	// pos maps a digest to its position in digests (dedupe on ingest).
	pos map[codec.Hash]int
}

func newRecTracker() *recTracker {
	return &recTracker{
		prefix: []codec.Hash{codec.ZeroHash},
		pos:    make(map[codec.Hash]int),
	}
}

// ingest appends d to the tracked stream (idempotent) and returns its
// position.
func (t *recTracker) ingest(d codec.Hash) int {
	if i, ok := t.pos[d]; ok {
		return i
	}
	i := len(t.digests)
	t.digests = append(t.digests, d)
	t.prefix = append(t.prefix, codec.HashConcat(t.prefix[i][:], d[:]))
	t.pos[d] = i
	return i
}

// count returns the number of tracked records.
func (t *recTracker) count() uint64 { return uint64(len(t.digests)) }

// spine is the cross-partition anchor chain plus its per-partition
// record trackers. All fields are guarded by mu; nothing here ever
// holds a partition chain's lock (anchor state is snapshotted before mu
// is taken), so the lock order chain.mu → spine.mu never inverts.
type spine struct {
	mu       sync.Mutex
	blocks   []SpineBlock
	trackers []*recTracker
	// anchored[p] is trackers[p].count() at the last anchor of p —
	// the "is there anything new to anchor" watermark.
	anchored []uint64
}

func newSpine(partitions int) *spine {
	s := &spine{
		trackers: make([]*recTracker, partitions),
		anchored: make([]uint64, partitions),
	}
	for i := range s.trackers {
		s.trackers[i] = newRecTracker()
	}
	return s
}

// appendLocked seals anchors into a new spine block. Caller holds mu.
func (s *spine) appendLocked(anchors []Anchor) {
	b := SpineBlock{Number: uint64(len(s.blocks)), Anchors: anchors}
	if n := len(s.blocks); n > 0 {
		b.PrevHash = s.blocks[n-1].Hash()
	}
	s.blocks = append(s.blocks, b)
	for _, a := range anchors {
		s.anchored[a.Partition] = a.Records
	}
}

// snapshot returns a copy of the spine blocks. Anchor slices are shared
// but never mutated after append.
func (s *spine) snapshot() []SpineBlock {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]SpineBlock(nil), s.blocks...)
}

// verify checks the spine's hash links and every anchor's record chain
// against the tracked digest stream.
func (s *spine) verify() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	last := make([]uint64, len(s.trackers))
	for i, b := range s.blocks {
		if b.Number != uint64(i) {
			return fmt.Errorf("partition: spine block %d numbered %d", i, b.Number)
		}
		if i == 0 {
			if !b.PrevHash.IsZero() {
				return fmt.Errorf("partition: spine genesis has a previous hash")
			}
		} else if b.PrevHash != s.blocks[i-1].Hash() {
			return fmt.Errorf("partition: spine link broken at block %d", i)
		}
		for _, a := range b.Anchors {
			if a.Partition < 0 || a.Partition >= len(s.trackers) {
				return fmt.Errorf("partition: spine block %d anchors unknown partition %d", i, a.Partition)
			}
			t := s.trackers[a.Partition]
			if a.Records > t.count() {
				return fmt.Errorf("partition: spine block %d anchors %d records of partition %d, tracker has %d",
					i, a.Records, a.Partition, t.count())
			}
			if a.RecordChain != t.prefix[a.Records] {
				return fmt.Errorf("partition: spine block %d record chain of partition %d does not match the record stream",
					i, a.Partition)
			}
			if a.Records < last[a.Partition] {
				return fmt.Errorf("partition: spine block %d anchors partition %d backwards (%d after %d)",
					i, a.Partition, a.Records, last[a.Partition])
			}
			last[a.Partition] = a.Records
		}
	}
	return nil
}

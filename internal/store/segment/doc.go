// Package segment implements the persistent store: blocks append into
// length-prefixed segment files, each holding a run of consecutive
// blocks inside one sequence and capped in size (a segment passes its
// cap by less than one record).
//
// One file per block would make physical deletion just as observable,
// but at scale it is an inode explosion, one open/rename per block on
// the hot path, and an unbounded unlink storm when a cut prunes a
// long prefix. The segment store keeps the paper's storage
// promise — "the old sequence can be cut off and deleted from the
// blockchain" (§IV-C) must reclaim bytes, not just unreachability —
// while amortizing the filesystem cost:
//
//   - Appends go to the tail of the active segment file: the record is
//     framed in the store's one record buffer, sized from the block's
//     exact encoding and cleared once written (one write syscall, no
//     per-append heap allocation at steady state), and not fsynced per
//     append. The store syncs on segment roll, truncation, and Close —
//     and on demand via Sync, which is the hook the chain's group-commit
//     durability mode uses to make many appended blocks durable with one
//     fsync before their receipts resolve. A Sync over a segment created
//     since the directory was last fsynced fsyncs the directory too, so
//     the records it covers are reachable after a crash.
//   - A segment rolls before the block after a summary block Σ (a Σ ends
//     its sequence), before a block that does not follow its last number,
//     and on the first append after Open, so a segment never spans a
//     sequence start. At a sequence boundary the cut that follows Σ
//     (DeleteBelowRecord) starts the next segment itself, so the append
//     after Σ rolls nothing and issues no fsync. Within a sequence it also rolls on the first append
//     after it has reached SegmentBytes, so it exceeds the threshold by
//     less than one record and a record larger than a segment costs one
//     roll, not two. Live segments are therefore at least live sequences:
//     about nine at 8 sequences of 8, plus size rolls, under the
//     64-handle LRU below; one per two blocks at the minimum
//     SequenceLength of 2.
//   - An in-memory offset index maps block numbers to (segment,
//     offset), so reads are one pread.
//   - Sealed segments' read handles live in an LRU capped at 64 open
//     files (maxOpenFiles) and reopen transparently on access, so a
//     long-lived store holds a bounded number of file descriptors no
//     matter how many segments accumulate (only the active segment's
//     handle is pinned).
//   - The chain sets every Genesis marker at a sequence start, so a
//     truncation only unlinks whole segments, one syscall each, and
//     never copies or rewrites a kept byte; reclaimed disk space stays
//     directly observable via SizeBytes. A segment holding records on
//     both sides of the marker is refused: by the cut, and by Open as
//     ErrCorrupt. A MANIFEST older than this rule fails Open with
//     ErrRetiredLayout.
//   - A crash-safe manifest (MANIFEST, written atomically) records the
//     Genesis marker and the expected segment set; Open reconciles it
//     against the directory, truncating torn record tails and
//     completing interrupted truncations.
//   - The Genesis marker has two durable homes, and every marker shift
//     writes both: a chain's cut, an adopted chain's marker
//     (chain.Chain.Attach) and DeleteBelow's bare record all take
//     DeleteBelowRecord, so the DELETIONS head always covers the
//     marker. A cut pays for both in four fsyncs, in this order: the
//     segment holding Σ; the DELETIONS record, which from then on
//     rolls an interrupted truncation forward; and one MANIFEST
//     rewrite after the unlinks (its temporary file and the directory,
//     whose fsync makes the unlinks and the new segment's entry
//     durable). Open takes the larger of the two markers, and a
//     segment MANIFEST lists but the directory lacks is data loss only
//     at or above it.
//   - The marker block itself — the paper's trusted anchor for the cut
//     part (§IV-C) — is stored once, as the first live record. Stream
//     starts at it, so a restore replays only the live suffix even when
//     a crash left stale pre-marker segments behind; the summary blocks
//     inside that suffix re-seed the carried-entry ledger.
package segment

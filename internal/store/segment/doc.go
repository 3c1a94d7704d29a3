// Package segment implements the persistent store: blocks append into
// bounded, length-prefixed segment files.
//
// One file per block would make physical deletion just as observable,
// but at scale it is an inode explosion, one open/rename per block on
// the hot path, and an unbounded unlink storm when the compactor
// prunes a long prefix. The segment store keeps the paper's storage
// promise — "the old sequence can be cut off and deleted from the
// blockchain" (§IV-C) must reclaim bytes, not just unreachability —
// while amortizing the filesystem cost:
//
//   - Appends go to the tail of the active segment file: the record is
//     framed in a pooled buffer (one write syscall, no per-append heap
//     allocation at steady state) and not fsynced per append. The store
//     syncs on segment roll, truncation, and Close — and on demand via
//     Sync, which is the hook the chain's group-commit durability mode
//     uses to make many appended blocks durable with one fsync before
//     their receipts resolve.
//   - An in-memory offset index maps block numbers to (segment,
//     offset), so reads are one pread.
//   - Sealed segments' read handles live in an LRU capped at 64 open
//     files (maxOpenFiles) and reopen transparently on access, so a
//     long-lived store holds a bounded number of file descriptors no
//     matter how many segments accumulate (only the active segment's
//     handle is pinned).
//   - Truncation retires whole segments with a single unlink each and
//     rewrites only the boundary segment that straddles the marker, so
//     reclaimed disk space stays directly observable via SizeBytes.
//   - A crash-safe manifest (MANIFEST, written atomically) records the
//     Genesis marker and the expected segment set; Open reconciles it
//     against the directory, truncating torn record tails and
//     completing interrupted truncations.
//   - The Genesis marker has two durable homes: the DELETIONS head,
//     appended first, rolls an interrupted truncation forward; MANIFEST,
//     rewritten before any file surgery, is the only home of a
//     record-less DeleteBelow. Open takes the larger of the two.
//   - The marker block itself — the paper's trusted anchor for the cut
//     part (§IV-C) — is stored once, as the first live record. Stream
//     starts at it, so a restore replays only the live suffix even when
//     a crash left stale pre-marker segments behind; the summary blocks
//     inside that suffix re-seed the carried-entry ledger.
package segment

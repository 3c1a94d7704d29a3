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
//     allocation at steady state) and fsynced per append only when
//     Options.SyncEvery is set. Otherwise the store syncs on segment
//     roll, truncation, snapshot, and Close — and on demand via Sync,
//     which is the hook the chain's group-commit durability mode uses
//     to make many appended blocks durable with one fsync before their
//     receipts resolve.
//   - An in-memory offset index maps block numbers to (segment,
//     offset), so reads are one pread.
//   - Sealed segments' read handles live in an LRU capped by
//     Options.MaxOpenFiles and reopen transparently on access, so a
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
//   - A snapshot checkpoint (SNAPSHOT) is written at every marker
//     shift: the marker, the head at checkpoint time, and the full
//     marker block (the paper's trusted anchor, §IV-C; the summary
//     blocks inside the live suffix re-seed the carried-entry ledger).
//     Stream starts at the snapshot's marker, so a restore replays
//     only the live suffix even when a crash left stale pre-marker
//     segments behind.
package segment

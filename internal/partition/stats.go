package partition

import (
	"github.com/seldel/seldel/internal/mempool"
)

// mergePipelineStats folds the per-partition pipeline snapshots into
// one view. mempool.Stats was designed for a single pipeline, so each
// gauge needs an explicit merge rule:
//
//   - Batches, Entries, Rejected: summed — they are monotonic counters
//     of disjoint work.
//   - QueueDepth, QueueCap: summed — total staged work and total intake
//     capacity across partitions; depth near cap still means producers
//     are about to block somewhere.
//   - AutoLinger: maximum — the worst adaptive linger any partition is
//     currently applying (averaging would hide a hot partition).
//   - Verify: taken from one partition, NOT summed. All partitions
//     share a single verification pool, so each per-partition snapshot
//     already describes the whole pool; summing would multiply every
//     pool counter by the partition count.
//   - Compaction: Pending, Truncations, BlocksCompacted, and
//     BytesReclaimed are summed (disjoint physical work); LastMarker is
//     the maximum (markers live in disjoint stripes, so the max is the
//     most recent high-stripe truncation; recover the partition as
//     LastMarker / StrideWidth()).
//   - Index: Live, Peak, and Rebuilds are summed. Peak is summed too,
//     which makes the merged Peak an upper bound on any instantaneous
//     global peak (partitions peak at different times).
func mergePipelineStats(all []mempool.Stats) mempool.Stats {
	var out mempool.Stats
	for i, s := range all {
		out.Batches += s.Batches
		out.Entries += s.Entries
		out.Rejected += s.Rejected
		out.QueueDepth += s.QueueDepth
		out.QueueCap += s.QueueCap
		if s.AutoLinger > out.AutoLinger {
			out.AutoLinger = s.AutoLinger
		}
		if i == 0 {
			out.Verify = s.Verify
		}
		out.Compaction.Pending += s.Compaction.Pending
		out.Compaction.Truncations += s.Compaction.Truncations
		out.Compaction.BlocksCompacted += s.Compaction.BlocksCompacted
		out.Compaction.BytesReclaimed += s.Compaction.BytesReclaimed
		if s.Compaction.LastMarker > out.Compaction.LastMarker {
			out.Compaction.LastMarker = s.Compaction.LastMarker
		}
		out.Index.Live += s.Index.Live
		out.Index.Peak += s.Index.Peak
		out.Index.Rebuilds += s.Index.Rebuilds
	}
	return out
}

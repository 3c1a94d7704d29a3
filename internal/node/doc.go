// Package node implements anchor nodes: the quorum members that "manage
// the full copy of the blockchain" (§IV-A), extend their consensus
// engine with the summary-block behaviour (§IV-B), vote on
// Genesis-marker shifts (§IV-C), and serve the current status quo to
// clients so isolated participants can recover (§V-B.4).
//
// A node owns a fully configured selective-deletion chain — the
// parallel verification pool, the asynchronous deletion lifecycle, and
// (optionally) a persistent store it restores from at startup, snapshot
// checkpoint first, so a restarted node replays only the live suffix.
//
// There is one way to write to a node, and it is the batching pipeline
// of a single-process chain: Submit coalesces concurrent producers
// through a mempool.Batcher whose sealer proposes blocks through the
// chain's own sealing primitive (chain.Chain.CommitNormal: build,
// engine-seal, append, store), then gossips each block and kicks the
// summary vote when the next slot is a summary slot. Receipts resolve
// under the chain's durability contract (chain.Chain.Durable). Each
// entry is accepted or rejected on its own receipt; peers see entries
// only inside sealed blocks. AppendEmpty seals the §IV-D.3 filler block
// through the same sealer. Once a block misses the node's store, the
// node fails closed like a chain: that batch's receipts and every later
// write fail, the chain appends no block a peer sends, and the node
// votes on no summary.
//
// Peer synchronization is snapshot-anchored: a node that fell behind
// within the live window receives the missing suffix (wire.SyncResp),
// while one that fell behind the quorum's Genesis marker receives the
// snapshot payload (wire.SnapshotResp) — marker, head, and the live
// blocks — and adopts it by adding each block to a chain.Restorer as it
// decodes the chunk holding it, never replaying anything the quorum
// already deleted. No goroutine serves a snapshot session, and a write
// stalled on a due summary vote costs one announcement and one bounded
// wait.
//
// Fault injection for the scenario suite comes from internal/attack
// (Config.Byzantine): a vote-withholding member computes summaries but
// stays silent in the quorum vote, probing the liveness bound of the
// majority rule.
package node

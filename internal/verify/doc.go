// Package verify implements the signature-verification engine shared by
// every validation call site of the chain.
//
// Ed25519 verification dominates the append path at high producer counts
// (ROADMAP: "the dominant cost at high producer counts; embarrassingly
// parallel per entry"), and the layered write path legitimately checks
// the same signature more than once (BuildNormal validates a candidate,
// AppendBlock re-validates the sealed block; gossip re-validates what the
// mempool already screened). The engine removes both costs:
//
//   - a sharded LRU cache keyed by (public key, message, signature)
//     remembers signatures that already verified, so re-checks along the
//     pipeline — and identical entries arriving via gossip — cost one
//     hash instead of one scalar multiplication;
//   - a Batch screens many signatures against that cache in one pass,
//     verifies identical tuples once, and checks each remaining
//     signature once, with Each forking the checks across at most
//     Workers goroutines and joining, outside any chain lock;
//   - a warm-up queue (Warm) checks submitted groups ahead of their
//     seal: one FIFO per pool, worked oldest group first by at most
//     Workers goroutines that exist only while it holds work, so groups
//     finish in the order they were queued, and a worker waits for a
//     signature another worker is checking instead of checking it too.
//
// It is the module's one signature path: entries, deletion
// co-signatures, message envelopes (VerifySigner) and audits all reach
// Ed25519 through a Pool, and so through its cache.
//
// Only successful verifications are cached, and the key binds the public
// key itself (not the owner name), so registries that map the same name
// to different keys can safely share a pool.
package verify

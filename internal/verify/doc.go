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
//     verifies identical tuples once, and settles the rest in
//     all-or-nothing chunks that Each forks across at most Workers
//     goroutines and joins, outside any chain lock.
//
// Only successful verifications are cached, and the key binds the public
// key itself (not the owner name), so registries that map the same name
// to different keys can safely share a pool.
package verify

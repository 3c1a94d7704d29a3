// Package verify implements the signature-verification engine shared by
// every validation call site of the chain.
//
// Ed25519 verification dominates the append path, and the layered write
// path checks the same signature more than once (CommitNormal validates
// a candidate, then re-validates the sealed block as it appends it;
// gossip re-validates what the mempool already screened). The engine removes
// both costs:
//
//   - a sharded LRU cache keyed by (public key, message, signature)
//     remembers signatures that already verified, so a re-check costs
//     one hash instead of one scalar multiplication;
//   - one queue per pool, run by at most Workers goroutines that exist
//     only while it holds work, takes two kinds of request. Warm queues
//     a submitted group ahead of its seal, and groups finish oldest
//     first. A synchronous check (Entries, Blocks, CoSigners) screens
//     against the cache inline and runs its misses itself, while idle
//     workers take them ahead of any warm-up entry. A signature already
//     in flight is waited for, and every copy takes the one verdict.
//
// It is the module's one signature path: entries, deletion
// co-signatures, message envelopes (VerifySigner) and audits all reach
// Ed25519 through a Pool, and so through its cache. Only successful
// verifications are cached, and the key binds the public key itself
// (not the owner name), so registries that map the same name to
// different keys can safely share a pool.
package verify

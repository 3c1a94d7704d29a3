// Package serve is the network front-end of the selective-deletion
// engine: an HTTP (h2c-capable) API over the concurrent submission
// pipeline and the chain's read surface, built so the first byte of
// backpressure is an explicit 429 instead of a silently growing queue.
//
// The handler set mirrors the Go façade:
//
//	POST /v1/submit            enqueue signed entries (202) or, with
//	                           ?wait=1, block until sealed and return
//	                           each entry's stable Ref
//	GET  /v1/entries           cursor pagination over the live entries
//	                           in reference order (?after=CURSOR&limit=N),
//	                           or an NDJSON stream with ?stream=1
//	GET  /v1/tombstones        the durable deletion audit records
//	GET  /v1/prove-deleted     a self-contained deletion proof for one
//	                           erased reference
//	GET  /v1/stats             chain, pipeline, and server counters
//	GET  /healthz              liveness
//
// A Server fronts any Backend: a single chain, a partitioned chain, or
// a cluster node — all three satisfy the interface. Submitted entries
// are signed by the CLIENT; the server never holds keys. One request's
// entries are handed to the mempool as one group, so connection-level
// batching composes with the pipeline's own coalescing: concurrent
// requests still seal together in full blocks.
//
// A page is one ordered seek of the backend (Backend.EntriesAfter):
// O(log live + page) under one short read lock, snapshot-consistent, with
// a cursor that never yields a duplicate and never skips an entry that
// stays live for the whole scan, even across truncations. A stream is the
// same walk run server-side in chunks of streamChunk entries, each chunk
// snapshot-consistent, so its memory does not grow with the live set.
// Both leave out entries whose deletion was approved but not yet
// physically executed. /v1/stats counts pages and the entries their
// seeks copied out (read_pages, entries_scanned).
//
// Admission control is wired to the pipeline's backpressure gauges
// (mempool.Stats): requests are shed with 429 + Retry-After BEFORE the
// intake queue saturates — via a server-local pending-entry budget that
// tracks accepted-but-unsealed entries exactly, plus a sampled
// queue-depth gauge that covers producers outside this server (gossip
// intake, in-process writers). Producers therefore never block on a
// full intake through this front-end, which is what keeps tail latency
// bounded under hostile offered load. See docs/ARCHITECTURE.md §9.
package serve

// Package compact executes the physical side of selective deletion in
// the background.
//
// When a summary block shrinks the chain, the logical truncation — the
// marker shift and the sweep of the chain's entry ledger — must happen
// atomically with the append (later validations depend on it). The *physical* work does not: releasing the cut block
// memory, sweeping dead dependency edges, and pruning the persistent
// store (file unlinks, the dominant latency) only reclaim resources.
// The Compactor takes that work off the append path: truncation events
// are staged in order and executed by one background goroutine, with a
// Wait barrier for deterministic tests and experiments.
//
// The intake (TryEnqueue) never blocks and takes only the compactor's
// own mutex, so the chain stages events while still holding its lock —
// that is what guarantees events execute in marker order even with
// concurrent appenders. An event staged before its append's listeners
// ran carries Event.After and executes only once they have, so the
// store holds the summary block before it drops what that block
// replaced. The staging queue is unbounded: truncations are rare
// relative to appends and events are a few words each.
package compact

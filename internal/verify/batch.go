package verify

import (
	"crypto/ed25519"
)

// batchChunk is the largest aggregate-verify unit: pending signatures
// are verified in all-or-nothing chunks of at most this size, so one bad
// signature costs a bisection over its own chunk instead of degrading
// the whole batch, and Each fans out whole chunks, not single
// signatures. A batch too small to give every worker a full chunk is
// cut into one smaller chunk per worker instead (chunkSize).
const batchChunk = 16

// chunkSize is the chunk length for n pending signatures on workers
// goroutines: min(batchChunk, ⌈n/workers⌉), at least 1.
func chunkSize(n, workers int) int {
	return max(1, min(batchChunk, (n+workers-1)/workers))
}

// batchItem is one accumulated signature check.
type batchItem struct {
	pub ed25519.PublicKey
	msg []byte
	sig []byte
	key cacheKey
	bad bool // malformed key/signature size, rejected before crypto
}

// Batch accumulates signature checks and verifies them together — the
// accumulate-then-verify shape of ed25519consensus's BatchVerifier.
// The batch path layers three wins in front of the per-signature
// Ed25519 cost: the verified-signature cache screens the whole batch
// in one pass, identical (key, message, signature) tuples within the
// batch are verified once (gossip re-delivery, co-signature storms),
// and the remainder is verified in all-or-nothing chunks, with
// bisection isolating failures so a single bad signature cannot force
// per-signature fallback for everyone.
// The chunk primitive is pass/fail only, so a curve-level multiscalar
// backend can replace its internals without touching the bisection or
// the callers.
//
// A Batch is single-goroutine: Add everything, then call Verify
// exactly once. Message and signature slices are retained until then.
type Batch struct {
	p     *Pool
	items []batchItem
}

// NewBatch returns an empty batch verifying through p, sized for
// capacity accumulated checks.
func (p *Pool) NewBatch(capacity int) *Batch {
	return &Batch{p: p, items: make([]batchItem, 0, capacity)}
}

// Add accumulates one signature check. Malformed key or signature
// sizes are recorded as failed verdicts without touching the cache or
// the curve, matching VerifySig.
func (b *Batch) Add(pub ed25519.PublicKey, msg, sig []byte) {
	it := batchItem{pub: pub, msg: msg, sig: sig}
	if len(pub) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		it.bad = true
	}
	b.items = append(b.items, it)
}

// pending tracks one representative of a distinct signature tuple and
// the batch positions that duplicate it.
type pending struct {
	item int
	dups []int
}

// Verify resolves every accumulated check and returns one verdict per
// Add, in order.
func (b *Batch) Verify() []bool {
	n := len(b.items)
	if n == 0 {
		return nil
	}
	verdicts := make([]bool, n)
	// Pass 1 — screen: resolve cache hits and collapse duplicate
	// tuples, leaving only distinct unverified signatures for the
	// chunked crypto pass.
	uniq := make([]pending, 0, n)
	var seen map[cacheKey]int
	if b.p.cache != nil {
		seen = make(map[cacheKey]int, n)
	}
	for i := range b.items {
		it := &b.items[i]
		if it.bad {
			continue
		}
		if b.p.cache == nil {
			uniq = append(uniq, pending{item: i})
			continue
		}
		it.key = cacheKeyFor(it.pub, it.msg, it.sig)
		if b.p.cache.contains(it.key) {
			b.p.hits.Add(1)
			verdicts[i] = true
			continue
		}
		b.p.misses.Add(1)
		if j, ok := seen[it.key]; ok {
			uniq[j].dups = append(uniq[j].dups, i)
			continue
		}
		seen[it.key] = len(uniq)
		uniq = append(uniq, pending{item: i})
	}
	// Pass 2 — chunked aggregate verify with bisection on failure.
	b.p.batched.Add(uint64(len(uniq)))
	size := chunkSize(len(uniq), b.p.workers)
	b.p.Each((len(uniq)+size-1)/size, func(ci int) {
		lo := ci * size
		hi := min(lo+size, len(uniq))
		b.resolveChunk(uniq[lo:hi], verdicts)
	})
	// Pass 3 — propagate representative verdicts to their duplicates.
	for _, u := range uniq {
		for _, d := range u.dups {
			verdicts[d] = verdicts[u.item]
		}
	}
	return verdicts
}

// resolveChunk settles one chunk: aggregate-verify it whole, and on
// failure bisect until the bad signatures are pinpointed.
func (b *Batch) resolveChunk(chunk []pending, verdicts []bool) {
	if b.aggregateOK(chunk) {
		b.markValid(chunk, verdicts)
		return
	}
	b.bisect(chunk, verdicts)
}

// aggregateOK is the all-or-nothing chunk primitive: it reports only
// whether EVERY signature in the chunk verifies. The stdlib backend
// checks sequentially and aborts at the first failure; a multiscalar
// batch equation can replace this body wholesale because callers never
// learn which element failed — bisection recovers that.
func (b *Batch) aggregateOK(chunk []pending) bool {
	for _, u := range chunk {
		it := &b.items[u.item]
		b.p.verified.Add(1)
		if !ed25519.Verify(it.pub, it.msg, it.sig) {
			return false
		}
	}
	return true
}

// bisect splits a failed chunk and re-verifies the halves, recursing
// into whichever still fails; a single-element chunk's failure is
// final. Cost is logarithmic per bad signature while good signatures
// settle in their surviving half's single aggregate call.
func (b *Batch) bisect(chunk []pending, verdicts []bool) {
	if len(chunk) == 1 {
		// aggregateOK already failed this element; its verdict stays
		// false.
		return
	}
	mid := len(chunk) / 2
	for _, half := range [2][]pending{chunk[:mid], chunk[mid:]} {
		if b.aggregateOK(half) {
			b.markValid(half, verdicts)
			continue
		}
		b.bisect(half, verdicts)
	}
}

// markValid records a fully verified chunk: verdicts flip true and the
// cache learns every tuple.
func (b *Batch) markValid(chunk []pending, verdicts []bool) {
	for _, u := range chunk {
		verdicts[u.item] = true
		if b.p.cache != nil {
			b.p.cache.add(b.items[u.item].key)
		}
	}
}

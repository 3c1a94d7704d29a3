package verify

import (
	"crypto/ed25519"
)

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
// The batch path layers two wins in front of the per-signature Ed25519
// cost: the verified-signature cache screens the whole batch in one
// pass, and identical (key, message, signature) tuples within the batch
// are verified once (gossip re-delivery, co-signature storms). Every
// remaining signature is verified once, on its own, fanned out by Each:
// n distinct uncached signatures cost exactly n curve checks, however
// many of them are bad.
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
	// tuples, leaving only distinct unverified signatures for the curve.
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
	// Pass 2 — one curve check per distinct uncached signature.
	b.p.batched.Add(uint64(len(uniq)))
	b.p.Each(len(uniq), func(k int) {
		it := &b.items[uniq[k].item]
		verdicts[uniq[k].item] = b.p.curve(it.pub, it.msg, it.sig, it.key)
	})
	// Pass 3 — propagate representative verdicts to their duplicates.
	for _, u := range uniq {
		for _, d := range u.dups {
			verdicts[d] = verdicts[u.item]
		}
	}
	return verdicts
}

package verify

import (
	"crypto/ed25519"
	"runtime"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/identity"
)

// warmGroup is one Warm call waiting in the pool's warm-up queue.
type warmGroup struct {
	reg     *identity.Registry
	entries []*block.Entry
	// next is the first entry no worker has claimed yet; left counts
	// the entries not yet finished. Both are guarded by Pool.mu.
	next, left int
	done       chan struct{}
}

// Warm queues entries for pre-verification, so a later Entries call over
// the same batch — and, for deletion entries, the CoSigners call of
// request authorization at sealing time — resolves from the cache. The
// returned channel is closed once every signature of the group has been
// checked and every group queued before it is closed too: groups finish
// in the order they were queued. Until then the slice is read, so the
// caller must not modify it. Failures are ignored: the authoritative
// check happens at validation time. Without a cache it does nothing and
// returns nil.
//
// The queue is one FIFO per pool, run by at most Workers goroutines
// that start when there is unclaimed work and exit when there is none.
// Each worker takes the next entry of the oldest group with unclaimed
// entries, so the oldest group is verified first and no worker idles at
// a group's tail; a worker that closes a group yields, so the flusher
// waiting on it runs before the next signature (see warmWorker). A
// signature already in flight on another worker is waited for, not
// checked twice, whether the copies are in one group or in two.
func (p *Pool) Warm(reg *identity.Registry, entries []*block.Entry) <-chan struct{} {
	if p.cache == nil {
		return nil
	}
	done := make(chan struct{})
	p.mu.Lock()
	if len(entries) == 0 && len(p.warming) == 0 {
		p.mu.Unlock()
		close(done)
		return done
	}
	p.warming = append(p.warming, warmGroup{reg: reg, entries: entries, left: len(entries), done: done})
	p.unclaimed += len(entries)
	start := max(min(p.workers, p.unclaimed)-p.workersUp, 0)
	p.workersUp += start
	p.mu.Unlock()
	for range start {
		go p.warmWorker()
	}
	return done
}

// warmWorker claims queued entries oldest first until none is left
// unclaimed, then exits.
func (p *Pool) warmWorker() {
	for {
		p.mu.Lock()
		if p.unclaimed == 0 {
			p.workersUp--
			p.mu.Unlock()
			return
		}
		for p.warming[p.claimAt].next == len(p.warming[p.claimAt].entries) {
			p.claimAt++
		}
		seq := p.popped + p.claimAt // stays the group's while the queue pops
		g := &p.warming[p.claimAt]
		reg, e := g.reg, g.entries[g.next]
		g.next++
		p.unclaimed--
		p.mu.Unlock()

		p.warmEntry(reg, e)

		p.mu.Lock()
		p.warming[seq-p.popped].left--
		// Having closed a group, let the flusher waiting on it seal it
		// before this worker takes on the next signature, while the group
		// now at the head still has entries no worker holds. When every
		// entry of it is already on a worker, it closes within one
		// signature, and a yield per such close would seal one tiny group
		// per block: one-entry groups at saturation then go to the
		// flusher at the scheduler's next turn, batched.
		yield := p.closeFinished() && len(p.warming) > 0 && p.warming[0].next < len(p.warming[0].entries)
		p.mu.Unlock()
		if yield {
			runtime.Gosched()
		}
	}
}

// closeFinished pops the finished groups at the head of the queue and
// closes their channels, in order; it reports whether it closed any.
// The caller holds p.mu.
func (p *Pool) closeFinished() bool {
	n := 0
	for n < len(p.warming) && p.warming[n].left == 0 {
		close(p.warming[n].done)
		p.warming[n] = warmGroup{}
		n++
	}
	if n == 0 {
		return false
	}
	p.warming = p.warming[n:]
	p.popped += n
	p.claimAt = max(p.claimAt-n, 0)
	return true
}

// warmEntry checks e's owner signature and, for a deletion, its
// co-signatures. An entry that fails its shape or names an unknown
// identity is skipped: the authoritative check reports it.
func (p *Pool) warmEntry(reg *identity.Registry, e *block.Entry) {
	pub, err := screen(reg, e)
	if err != nil {
		return
	}
	p.warmSig(pub, e.SigningBytes(), e.Signature)
	if e.Kind != block.KindDeletion || len(e.CoSigners) == 0 {
		return
	}
	msg := block.CoSigningBytes(e.Target)
	for _, cs := range e.CoSigners {
		if info, ok := reg.Lookup(cs.Name); ok {
			p.warmSig(info.Public, msg, cs.Signature)
		}
	}
}

// warmSig brings one signature into the cache: a hit costs a probe; a
// signature another worker is checking right now is waited for, like a
// duplicate within a Batch; any other reaches the curve, counted as
// batched work.
func (p *Pool) warmSig(pub ed25519.PublicKey, msg, sig []byte) {
	if len(pub) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		return
	}
	key := cacheKeyFor(pub, msg, sig)
	if p.cache.contains(key) {
		p.hits.Add(1)
		return
	}
	p.mu.Lock()
	if p.inflight[key] {
		for p.inflight[key] {
			p.landed.Wait()
		}
		p.mu.Unlock()
		p.misses.Add(1)
		return
	}
	// Probed again under mu: the signature may have landed since.
	if p.cache.contains(key) {
		p.mu.Unlock()
		p.hits.Add(1)
		return
	}
	if p.inflight == nil {
		p.inflight = make(map[cacheKey]bool)
	}
	p.inflight[key] = true
	p.mu.Unlock()

	p.misses.Add(1)
	p.batched.Add(1)
	p.curve(pub, msg, sig, key)

	p.mu.Lock()
	delete(p.inflight, key)
	p.landed.Broadcast()
	p.mu.Unlock()
}

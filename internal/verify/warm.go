package verify

import (
	"crypto/ed25519"
	"runtime"
	"slices"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/identity"
)

// flight is one signature on its way to a verdict. done and ok are
// guarded by Pool.mu; while a flight is registered in Pool.inflight,
// every other check of its signature waits for it and takes its
// verdict instead of reaching the curve again.
type flight struct {
	pub      ed25519.PublicKey
	msg, sig []byte
	key      cacheKey
	done, ok bool
}

// checkCall is the flights one check call runs itself, queued ahead of
// every warm-up entry until its caller or a worker has claimed them.
type checkCall struct {
	own  []*flight
	next int // the first no one has claimed; guarded by Pool.mu
}

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
// returns nil. The queue's workers take a group's entries oldest group
// first, after any check call's flights (see worker).
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
	p.startLocked(0)
	p.mu.Unlock()
	return done
}

// startLocked starts workers until min(Workers, unclaimed − self) are
// up, self being the flights its caller runs itself. It holds p.mu.
func (p *Pool) startLocked(self int) {
	for ; p.workersUp < min(p.workers, p.unclaimed-self); p.workersUp++ {
		go p.worker()
	}
}

// check returns one verdict per signature, in order: the synchronous
// side of the queue. Cache hits resolve inline, without the lock. A miss
// joins the flight already carrying its signature (a duplicate in the
// call, a warm-up, another check) and takes its verdict, or becomes a
// flight of its own, which the caller runs, and which idle workers take
// ahead of any warm-up entry: a check never waits behind the intake's
// backlog. A malformed key or signature size fails without touching the
// cache or the curve.
func (p *Pool) check(sigs []flight) []bool {
	ok := make([]bool, len(sigs))
	var via []*flight // the flight each miss takes its verdict from
	for i := range sigs {
		f := &sigs[i]
		if len(f.pub) != ed25519.PublicKeySize || len(f.sig) != ed25519.SignatureSize {
			continue
		}
		if p.cache != nil {
			f.key = cacheKeyFor(f.pub, f.msg, f.sig)
			if p.cache.contains(f.key) {
				p.hits.Add(1)
				ok[i] = true
				continue
			}
		}
		if via == nil { // allocated only when a signature misses
			via = make([]*flight, len(sigs))
		}
		via[i] = f
	}
	if via == nil {
		return ok
	}

	c := &checkCall{}
	p.mu.Lock()
	for i, f := range via {
		if f == nil {
			continue
		}
		if via[i] = p.boardLocked(f); via[i] == f {
			c.own = append(c.own, f)
		}
		ok[i] = via[i] == nil
	}
	if len(c.own) > 0 {
		p.checks = append(p.checks, c)
		p.unclaimed += len(c.own)
	}
	p.startLocked(1) // the caller runs one flight itself
	for c.next < len(c.own) {
		f := p.claimLocked(c)
		p.mu.Unlock()
		p.fly(f)
		p.mu.Lock()
	}
	for i, f := range via {
		if f == nil {
			continue
		}
		for !f.done {
			p.landed.Wait()
		}
		ok[i] = f.ok
	}
	p.mu.Unlock()
	return ok
}

// boardLocked returns the flight whose verdict f's signature takes: one
// already carrying it, or f itself, now registered; nil when the
// signature landed in the cache after its first probe. Without a cache
// every flight is its own. The caller holds p.mu.
func (p *Pool) boardLocked(f *flight) *flight {
	if p.cache == nil {
		return f
	}
	if g := p.inflight[f.key]; g != nil {
		p.misses.Add(1)
		return g
	}
	if p.cache.contains(f.key) {
		p.hits.Add(1)
		return nil
	}
	p.misses.Add(1)
	p.inflight[f.key] = f
	return f
}

// claimLocked hands out c's next unclaimed flight and takes c off the
// queue once none is left. The caller holds p.mu.
func (p *Pool) claimLocked(c *checkCall) *flight {
	f := c.own[c.next]
	c.next++
	p.unclaimed--
	if c.next == len(c.own) {
		i := slices.Index(p.checks, c)
		p.checks = slices.Delete(p.checks, i, i+1)
	}
	return f
}

// fly runs f on the curve, counted as batched, and lands its verdict.
func (p *Pool) fly(f *flight) {
	p.batched.Add(1)
	ok := p.curve(f.pub, f.msg, f.sig, f.key)
	p.mu.Lock()
	f.done, f.ok = true, ok
	if p.inflight[f.key] == f {
		delete(p.inflight, f.key)
	}
	p.landed.Broadcast()
	p.mu.Unlock()
}

// worker claims queued work until none is left unclaimed, then exits: a
// check call's flight first, else the next entry of the oldest group
// with unclaimed entries, so the oldest group is verified first and no
// worker idles at a group's tail.
func (p *Pool) worker() {
	for {
		p.mu.Lock()
		if p.unclaimed == 0 {
			p.workersUp--
			p.mu.Unlock()
			return
		}
		if len(p.checks) > 0 {
			f := p.claimLocked(p.checks[0])
			p.mu.Unlock()
			p.fly(f)
			continue
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
// signature already in flight is waited for; any other flies here.
func (p *Pool) warmSig(pub ed25519.PublicKey, msg, sig []byte) {
	if len(pub) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		return
	}
	key := cacheKeyFor(pub, msg, sig)
	if p.cache.contains(key) {
		p.hits.Add(1)
		return
	}
	f := &flight{pub: pub, msg: msg, sig: sig, key: key}
	p.mu.Lock()
	g := p.boardLocked(f)
	for g != nil && g != f && !g.done {
		p.landed.Wait()
	}
	p.mu.Unlock()
	if g == f {
		p.fly(f)
	}
}

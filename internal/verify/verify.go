package verify

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/identity"
)

// DefaultCacheSize is the cache capacity (in verified signatures) used
// when Options.CacheSize is 0.
const DefaultCacheSize = 1 << 14

// Options parameterize a Pool.
type Options struct {
	// Workers bounds how many goroutines run the queue at once: the
	// warm-up entries and, ahead of them, the signatures of check calls
	// beyond the one each caller runs itself. 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// CacheSize is the verified-signature cache capacity. 0 means
	// DefaultCacheSize; negative disables the cache entirely (every
	// verification pays the full Ed25519 cost — the benchmark's
	// cache-off configuration).
	CacheSize int
}

// Stats is a snapshot of pool activity.
type Stats struct {
	// Workers is the bound on the queue's workers.
	Workers int
	// Verified counts Ed25519 verifications actually performed.
	Verified uint64
	// Batched counts signatures that reached the curve through the
	// queue (Entries, Blocks, CoSigners and Warm) rather than a
	// standalone VerifySig or VerifySigner call. Batched ≤ Verified;
	// the gap is the single-signature traffic (envelopes, audits).
	Batched uint64
	// CacheHits counts verifications answered from the cache.
	CacheHits uint64
	// CacheMisses counts cache probes that fell through to Ed25519.
	CacheMisses uint64
}

// EntryError reports which entry of a batch failed verification.
type EntryError struct {
	// Index is the position of the failing entry in the batch.
	Index int
	// Err is the underlying shape or signature error.
	Err error
}

func (e *EntryError) Error() string { return fmt.Sprintf("entry %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *EntryError) Unwrap() error { return e.Err }

// Pool is a signature verifier: a verified-signature cache, activity
// counters, and the queue that both Warm and the synchronous checks
// (Entries, Blocks, CoSigners) run through. An idle pool holds no
// goroutines: the queue's workers exist only while it holds unclaimed
// work. Safe for concurrent use; the zero value is not usable, call New
// (or use Shared).
type Pool struct {
	workers int
	cache   *cache

	// mu guards the queue: checks holds the check calls with flights
	// no one has claimed, oldest first; warming holds the warm-up groups
	// not yet closed, oldest first, popped counts the groups closed
	// before them, and claimAt indexes the first that may have unclaimed
	// entries; unclaimed counts the unclaimed flights and entries over
	// both, and workersUp the workers running. inflight holds the
	// signatures queued or on the curve right now; landed is broadcast
	// when one lands.
	mu        sync.Mutex
	checks    []*checkCall
	warming   []warmGroup
	popped    int
	claimAt   int
	unclaimed int
	workersUp int
	inflight  map[cacheKey]*flight
	landed    sync.Cond

	verified atomic.Uint64
	batched  atomic.Uint64
	hits     atomic.Uint64
	misses   atomic.Uint64
}

// New returns a verifier.
func New(opts Options) *Pool {
	p := &Pool{workers: opts.Workers, inflight: make(map[cacheKey]*flight)}
	p.landed.L = &p.mu
	if p.workers <= 0 {
		p.workers = runtime.GOMAXPROCS(0)
	}
	if opts.CacheSize >= 0 {
		size := opts.CacheSize
		if size == 0 {
			size = DefaultCacheSize
		}
		p.cache = newCache(size)
	}
	return p
}

// Shared returns the process-wide default pool: GOMAXPROCS workers and
// the default cache. Chains that are not configured with their own
// pool verify through it, so summary re-computation on every node of a
// local cluster shares one cache.
var Shared = sync.OnceValue(func() *Pool { return New(Options{}) })

// Stats returns a snapshot of pool activity.
func (p *Pool) Stats() Stats {
	return Stats{
		Workers:     p.workers,
		Verified:    p.verified.Load(),
		Batched:     p.batched.Load(),
		CacheHits:   p.hits.Load(),
		CacheMisses: p.misses.Load(),
	}
}

// Close does nothing — an idle Pool owns nothing to stop — and goes once benchmark/ stops calling it.
func (p *Pool) Close() {}

// cacheKeyScratchPool holds concat buffers for cacheKeyFor, so the two
// key computations per entry on the warm+seal path allocate nothing.
var cacheKeyScratchPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 256)
		return &b
	},
}

// cacheKeyFor binds public key, message, and signature into one cache
// key. Field lengths are framed so no (sig, msg) split can collide with
// another split of the same concatenation. Hashing costs ~100ns against
// the ~50µs Ed25519 verification it can save. The inputs are gathered
// into a pooled scratch buffer and hashed with one Sum256 call, which
// skips the heap-allocated hasher state of the streaming API.
func cacheKeyFor(pub ed25519.PublicKey, msg, sig []byte) cacheKey {
	bp := cacheKeyScratchPool.Get().(*[]byte)
	b := (*bp)[:0]
	b = append(b, "seldel/verify/v1"...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(sig)))
	b = append(b, pub...)
	b = append(b, sig...)
	b = append(b, msg...)
	k := sha256.Sum256(b)
	*bp = b
	cacheKeyScratchPool.Put(bp)
	return k
}

// VerifySig checks one raw signature through the cache and pool
// counters, on the caller's goroutine and outside the queue. Malformed
// key or signature sizes are rejected before the cache is consulted.
func (p *Pool) VerifySig(pub ed25519.PublicKey, msg, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		return false
	}
	var key cacheKey
	if p.cache != nil {
		key = cacheKeyFor(pub, msg, sig)
		if p.cache.contains(key) {
			p.hits.Add(1)
			return true
		}
		p.misses.Add(1)
	}
	return p.curve(pub, msg, sig, key)
}

// curve is the one Ed25519 check of the module: it counts the
// verification and, when the signature holds, caches key.
func (p *Pool) curve(pub ed25519.PublicKey, msg, sig []byte, key cacheKey) bool {
	p.verified.Add(1)
	if !ed25519.Verify(pub, msg, sig) {
		return false
	}
	if p.cache != nil {
		p.cache.add(key)
	}
	return true
}

// VerifySigner checks that sig is the signature of the identity name,
// as registered in reg, over msg — through VerifySig, so through the
// cache. Envelopes and audits check their signer with it. An unknown
// name is identity.ErrUnknownIdentity; a signature that is malformed or
// does not verify is identity.ErrBadSignature.
func (p *Pool) VerifySigner(reg *identity.Registry, name string, msg, sig []byte) error {
	info, ok := reg.Lookup(name)
	if !ok {
		return fmt.Errorf("%w: %q", identity.ErrUnknownIdentity, name)
	}
	if !p.VerifySig(info.Public, msg, sig) {
		return fmt.Errorf("%w: signer %q", identity.ErrBadSignature, name)
	}
	return nil
}

// screen runs the checks on e that need no curve math — structural
// shape and identity lookup — and returns the owner's public key.
func screen(reg *identity.Registry, e *block.Entry) (ed25519.PublicKey, error) {
	if err := e.CheckShape(); err != nil {
		return nil, err
	}
	info, ok := reg.Lookup(e.Owner)
	if !ok {
		return nil, fmt.Errorf("%w: %q", identity.ErrUnknownIdentity, e.Owner)
	}
	return info.Public, nil
}

// Entries verifies a batch of entries against reg: structural shape and
// owner signature for every entry. The first failure (by batch
// position) is returned as an *EntryError. Screening runs inline
// (nanoseconds against the microseconds of curve math) and stops at the
// first entry that fails it; the signatures before that entry resolve
// together through one check. Chain-state-dependent rules (dependencies,
// marks) are not checked here — they belong under the chain lock.
func (p *Pool) Entries(reg *identity.Registry, entries []*block.Entry) error {
	sigs := make([]flight, 0, len(entries))
	var err error
	for _, e := range entries {
		var pub ed25519.PublicKey
		if pub, err = screen(reg, e); err != nil {
			break
		}
		sigs = append(sigs, flight{pub: pub, msg: e.SigningBytes(), sig: e.Signature})
	}
	for i, ok := range p.check(sigs) {
		if !ok {
			return &EntryError{Index: i, Err: fmt.Errorf("%w: signer %q", identity.ErrBadSignature, entries[i].Owner)}
		}
	}
	if err != nil {
		return &EntryError{Index: len(sigs), Err: err}
	}
	return nil
}

// CoSigners verifies the co-signatures of a deletion entry in one
// check: each listed co-signer's Ed25519 signature over the cosigning
// bytes of the entry's target, through the verified-signature cache. verdicts[i]
// reports whether e.CoSigners[i] is a known identity with a valid
// signature. This is the lock-free half of deletion authorization — the
// chain consumes the verdicts under its lock without touching a
// signature again.
func (p *Pool) CoSigners(reg *identity.Registry, e *block.Entry) []bool {
	if len(e.CoSigners) == 0 {
		return nil
	}
	msg := block.CoSigningBytes(e.Target)
	sigs := make([]flight, len(e.CoSigners))
	for i, cs := range e.CoSigners {
		// An unknown name has no key, and check fails a keyless
		// signature without touching the cache or the curve.
		info, _ := reg.Lookup(cs.Name)
		sigs[i] = flight{pub: info.Public, msg: msg, sig: cs.Signature}
	}
	return p.check(sigs)
}

// Blocks verifies the entries of many blocks in one check — the restore
// path: a whole persisted chain (or an adopted status quo) is re-checked
// before any of it is trusted. Summary blocks contribute their carried
// entries, which the cache screens when several re-carry the same one.
// The first failing block (by slice position) is reported.
func (p *Pool) Blocks(reg *identity.Registry, blocks []*block.Block) error {
	var all []*block.Entry
	starts := make([]int, len(blocks)) // starts[k]: position in all of block k's first entry
	for k, b := range blocks {
		starts[k] = len(all)
		if !b.IsSummary() {
			all = append(all, b.Entries...)
			continue
		}
		for _, ce := range b.Carried {
			all = append(all, ce.Entry)
		}
	}
	bad, _ := p.Entries(reg, all).(*EntryError)
	if bad == nil {
		return nil
	}
	k := len(blocks) - 1
	for starts[k] > bad.Index {
		k--
	}
	bad.Index -= starts[k]
	return fmt.Errorf("block %d: %w", blocks[k].Header.Number, bad)
}

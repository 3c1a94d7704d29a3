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
	// Workers bounds how many goroutines one Each call runs fn on,
	// the caller included. 0 means runtime.GOMAXPROCS(0); 1 keeps
	// every call on the caller's goroutine.
	Workers int
	// CacheSize is the verified-signature cache capacity. 0 means
	// DefaultCacheSize; negative disables the cache entirely (every
	// verification pays the full Ed25519 cost — the benchmark's
	// cache-off configuration).
	CacheSize int
}

// Stats is a snapshot of pool activity.
type Stats struct {
	// Workers is the fan-out bound.
	Workers int
	// Verified counts Ed25519 verifications actually performed.
	Verified uint64
	// Batched counts signatures that reached the curve through the
	// batch path (chunked aggregate verification) rather than a
	// standalone VerifySig call. Batched ≤ Verified; the gap is the
	// single-signature traffic.
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
// counters, and a bound on fork-join fan-out. It holds no goroutines.
// Safe for concurrent use; the zero value is not usable, call New (or
// use Shared).
type Pool struct {
	workers int
	cache   *cache

	verified atomic.Uint64
	batched  atomic.Uint64
	hits     atomic.Uint64
	misses   atomic.Uint64
}

// New returns a verifier.
func New(opts Options) *Pool {
	p := &Pool{workers: opts.Workers}
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

// Shared returns the process-wide default pool: GOMAXPROCS-wide fan-out
// and the default cache. Chains that are not configured with their own
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

// Close does nothing — a Pool owns nothing to stop — and goes once benchmark/ stops calling it.
func (p *Pool) Close() {}

// Each runs fn(i) for every i in [0, n) and waits for all of them: on
// the caller alone when Workers or n is 1, otherwise on the caller plus
// min(Workers, n)-1 goroutines that pull indices from one counter and
// exit. It is the generic fan-out primitive — signature chunks and
// Merkle leaf hashing route through it (it satisfies merkle.Runner).
func (p *Pool) Each(n int, fn func(int)) {
	width := min(p.workers, n)
	if width <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	pull := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(width - 1)
	for g := 1; g < width; g++ {
		go func() {
			defer wg.Done()
			pull()
		}()
	}
	pull()
	wg.Wait()
}

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
// counters. It does not parallelize (a single check has nothing to fan
// out) but shares the cache with batch verification. Malformed key or
// signature sizes are rejected before the cache is consulted.
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
	p.verified.Add(1)
	if !ed25519.Verify(pub, msg, sig) {
		return false
	}
	if p.cache != nil {
		p.cache.add(key)
	}
	return true
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

// firstBad checks shape and owner signature of every entry and returns
// the first failure by position, nil when all pass. Screening runs
// inline (nanoseconds against the microseconds of curve math); the
// surviving signatures resolve together through one Batch — cache
// screen, duplicate collapse, chunked aggregate verify fanned out by
// Each. A lone entry, the common submit shape, skips the batch.
func (p *Pool) firstBad(reg *identity.Registry, entries []*block.Entry) *EntryError {
	badSig := func(e *block.Entry) error {
		return fmt.Errorf("%w: signer %q", identity.ErrBadSignature, e.Owner)
	}
	if len(entries) == 1 {
		e := entries[0]
		pub, err := screen(reg, e)
		if err == nil && !p.VerifySig(pub, e.SigningBytes(), e.Signature) {
			err = badSig(e)
		}
		if err != nil {
			return &EntryError{Index: 0, Err: err}
		}
		return nil
	}
	errs := make([]error, len(entries))
	b := p.NewBatch(len(entries))
	for i, e := range entries {
		pub, err := screen(reg, e)
		if errs[i] = err; err != nil {
			// A keyless check keeps verdict i on entry i; Add fails it
			// without touching the cache or the curve.
			b.Add(nil, nil, nil)
			continue
		}
		b.Add(pub, e.SigningBytes(), e.Signature)
	}
	for i, ok := range b.Verify() {
		switch {
		case errs[i] != nil:
			return &EntryError{Index: i, Err: errs[i]}
		case !ok:
			return &EntryError{Index: i, Err: badSig(entries[i])}
		}
	}
	return nil
}

// Entries verifies a batch of entries against reg: structural shape and
// owner signature for every entry. The first failure (by batch
// position) is returned as an *EntryError. Chain-state-dependent rules
// (dependencies, marks) are not checked here — they belong under the
// chain lock.
func (p *Pool) Entries(reg *identity.Registry, entries []*block.Entry) error {
	if bad := p.firstBad(reg, entries); bad != nil {
		return bad
	}
	return nil
}

// CoSigners batch-verifies the co-signatures of a deletion entry: each
// listed co-signer's Ed25519 signature over the cosigning bytes of the
// entry's target, through the verified-signature cache. verdicts[i]
// reports whether e.CoSigners[i] is a known identity with a valid
// signature. This is the lock-free half of deletion authorization — the
// chain consumes the verdicts under its lock without touching a
// signature again.
func (p *Pool) CoSigners(reg *identity.Registry, e *block.Entry) []bool {
	if len(e.CoSigners) == 0 {
		return nil
	}
	msg := block.CoSigningBytes(e.Target)
	b := p.NewBatch(len(e.CoSigners))
	for _, cs := range e.CoSigners {
		// An unknown name has no key, and Add fails a keyless check
		// without touching the cache or the curve.
		info, _ := reg.Lookup(cs.Name)
		b.Add(info.Public, msg, cs.Signature)
	}
	return b.Verify()
}

// Warm pre-verifies entries on a goroutine of its own, populating the
// cache so a later Entries call over the same batch — and, for deletion
// entries, the CoSigners call of request authorization at sealing time
// — resolves from hits. The slice is read after Warm returns, so the
// caller must not modify it. Failures are ignored: the authoritative
// check happens at validation time. Without a cache it does nothing.
func (p *Pool) Warm(reg *identity.Registry, entries []*block.Entry) {
	if p.cache == nil {
		return
	}
	go func() {
		_ = p.Entries(reg, entries)
		for _, e := range entries {
			if e.Kind == block.KindDeletion {
				p.CoSigners(reg, e)
			}
		}
	}()
}

// Blocks verifies the entries of many blocks as one batch — the restore
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
	bad := p.firstBad(reg, all)
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

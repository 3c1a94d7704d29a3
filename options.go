package seldel

import (
	"fmt"
	"io"
	"time"

	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/consensus"
	"github.com/seldel/seldel/internal/store"
	"github.com/seldel/seldel/internal/store/segment"
	"github.com/seldel/seldel/internal/verify"
)

// An Option configures a chain constructed by New.
type Option func(*builder) error

// builder accumulates the configuration assembled from options before
// the chain is constructed.
type builder struct {
	cfg       Config
	engine    Engine
	store     Store
	listeners []Listener
	// segDir/segOpts record a WithSegmentStore request; the store is
	// opened by b.open(), after every option ran, so a later option
	// that fails leaves no directory behind.
	segDir  string
	segOpts SegmentOptions
	// owned are resources opened by the builder itself (the deferred
	// WithSegmentStore open) rather than passed in by the caller: the
	// new chain adopts them (closed by Chain.Close), and New closes
	// them on a construction failure so no handle leaks.
	owned []io.Closer
}

// closeOwned releases option-opened resources after a failed build.
func (b *builder) closeOwned() {
	for _, r := range b.owned {
		r.Close()
	}
	b.owned = nil
}

// New creates a selective-deletion chain for the given identity registry,
// configured by functional options. With no options the chain uses the
// paper's evaluation geometry (a summary block every 3rd block) with
// unbounded retention; add WithMaxSequences or WithMaxBlocks to bound the
// live chain and enable physical deletion.
//
//	chain, err := seldel.New(reg,
//		seldel.WithSequenceLength(3),
//		seldel.WithMaxSequences(2),
//		seldel.WithStore(fs),
//	)
//
// When a store is supplied and already holds blocks, the chain is
// restored from it; otherwise a fresh genesis is created and mirrored
// into the store. The store is taken to be the chain's own: its bytes
// are checked (checksums, Merkle roots, hash links, timestamps, deletion
// co-signatures), the owner signatures it already validated before
// writing are not — Chain.VerifySignatures audits those on demand. Call
// Close when done to drain the submission pipeline.
func New(reg *Registry, opts ...Option) (*Chain, error) {
	if reg == nil {
		return nil, fmt.Errorf("%w: registry is required", ErrConfig)
	}
	b := &builder{cfg: Config{SequenceLength: 3, Registry: reg}}
	for _, opt := range opts {
		if err := opt(b); err != nil {
			b.closeOwned()
			return nil, err
		}
	}
	if b.engine != nil {
		consensus.Configure(&b.cfg, b.engine)
	}
	c, err := b.open()
	if err != nil {
		b.closeOwned()
		return nil, err
	}
	for _, l := range b.listeners {
		c.AddListener(l)
	}
	for _, r := range b.owned {
		c.Own(r)
	}
	return c, nil
}

// open constructs the chain, restoring from the store when it already
// holds blocks. A WithSegmentStore request is opened here, after every
// option ran.
func (b *builder) open() (*Chain, error) {
	if b.segDir != "" {
		s, err := segment.Open(b.segDir, b.segOpts)
		if err != nil {
			return nil, err
		}
		b.store = s
		b.owned = append(b.owned, s)
	}
	if b.store == nil {
		return chain.New(b.cfg)
	}
	return store.Open(b.cfg, b.store)
}

// WithSequenceLength sets l, the distance between summary blocks
// (default 3, the paper's evaluation configuration). Must be ≥ 2.
func WithSequenceLength(l int) Option {
	return func(b *builder) error {
		b.cfg.SequenceLength = l
		return nil
	}
}

// WithMaxSequences bounds the live chain to at most n complete sequences
// (§IV-C); exceeding it merges the oldest sequences into a summary block
// and physically deletes the cut prefix.
func WithMaxSequences(n int) Option {
	return func(b *builder) error {
		b.cfg.MaxSequences = n
		return nil
	}
}

// WithMaxBlocks bounds the live chain to lmax blocks (Eq. 1).
func WithMaxBlocks(n int) Option {
	return func(b *builder) error {
		b.cfg.MaxBlocks = n
		return nil
	}
}

// WithMinBlocks sets a floor on live blocks that truncation never cuts
// below (§IV-D.3).
func WithMinBlocks(n int) Option {
	return func(b *builder) error {
		b.cfg.MinBlocks = n
		return nil
	}
}

// WithMinTimeSpan sets a floor on the logical time covered by live
// blocks (§IV-D.3).
func WithMinTimeSpan(span uint64) Option {
	return func(b *builder) error {
		b.cfg.MinTimeSpan = span
		return nil
	}
}

// WithShrink selects the sequence-merge policy (default
// ShrinkAllButNewest, the prototype behaviour of Figs. 6–8).
func WithShrink(p ShrinkPolicy) Option {
	return func(b *builder) error {
		b.cfg.Shrink = p
		return nil
	}
}

// WithRedundancyReference enables the Fig. 9 middle-sequence Merkle
// reference in summary blocks.
func WithRedundancyReference() Option {
	return func(b *builder) error {
		b.cfg.RedundancyReference = true
		return nil
	}
}

// WithClock supplies the chain's logical clock (default: a fresh Logical
// clock starting at 0). Experiments pass deterministic clocks;
// seldel-serve passes a wall clock (Unix seconds).
func WithClock(c Clock) Option {
	return func(b *builder) error {
		b.cfg.Clock = c
		return nil
	}
}

// WithDeletionPolicy selects requester-authorization strictness for
// deletion requests (default PolicyRoleBased, §IV-D.1).
func WithDeletionPolicy(p DeletionPolicy) Option {
	return func(b *builder) error {
		b.cfg.DeletionPolicy = p
		return nil
	}
}

// WithAutoCohesion enables the Bell-LaPadula-style automatic cohesion
// decision of §IV-D.2.
func WithAutoCohesion(p *AutoCohesionPolicy) Option {
	return func(b *builder) error {
		b.cfg.AutoCohesion = p
		return nil
	}
}

// WithEngine wires a consensus engine: it seals freshly built normal
// blocks and verifies seals on blocks received from peers.
func WithEngine(e Engine) Option {
	return func(b *builder) error {
		if e == nil {
			return fmt.Errorf("%w: nil engine", ErrConfig)
		}
		b.engine = e
		return nil
	}
}

// WithStore persists the chain into s: restored from it when non-empty,
// mirrored into it from genesis otherwise.
func WithStore(s Store) Option {
	return func(b *builder) error {
		if s == nil {
			return fmt.Errorf("%w: nil store", ErrConfig)
		}
		b.store = s
		return nil
	}
}

// WithSegmentStore persists the chain into a segment store rooted at
// dir, opening (or creating) it with the given options (pass none for
// the defaults: 1 MiB segments, fsync on roll/truncate/close). Like
// WithStore, a populated store restores the chain — starting at the
// store's Genesis marker, so only the live suffix is replayed — and an
// empty one is mirrored from genesis. Because the option opens the
// store itself, the chain owns it: Chain.Close syncs and closes it
// after the final compaction. Callers needing the handle (SizeBytes,
// Marker) should open it with NewSegmentStore and pass
// WithStore instead — then the handle, and its Close, stay theirs.
func WithSegmentStore(dir string, opts ...SegmentOptions) Option {
	return func(b *builder) error {
		if dir == "" {
			return fmt.Errorf("%w: empty segment store dir", ErrConfig)
		}
		if len(opts) > 1 {
			return fmt.Errorf("%w: at most one SegmentOptions", ErrConfig)
		}
		if len(opts) == 1 {
			b.segOpts = opts[0]
		}
		b.segDir = dir
		return nil
	}
}

// WithDurability selects when submission receipts resolve relative to
// the store's durability point. The default (DurabilitySeal) resolves a
// receipt at seal time, leaving durability to the store's own fsync
// policy. DurabilityGroup is group commit: receipts resolve only after
// their blocks reach stable storage, and all blocks sealed while one
// fsync is in flight share the next one — per-receipt durability at a
// small fraction of an fsync per block. window bounds how long the
// committer accumulates sealed blocks before forcing the sync (0 syncs
// as soon as the committer is free); it is an upper bound on the extra
// receipt latency group commit introduces.
//
// DurabilityGroup requires a store whose handle can force durability:
// WithSegmentStore, or WithStore with a store implementing
// `Sync() error`.
func WithDurability(mode DurabilityMode, window time.Duration) Option {
	return func(b *builder) error {
		if !mode.Valid() {
			return fmt.Errorf("%w: invalid durability mode %d", ErrConfig, mode)
		}
		if window < 0 {
			return fmt.Errorf("%w: negative durability window", ErrConfig)
		}
		b.cfg.Durability = chain.Durability{Mode: mode, GroupWindow: window}
		return nil
	}
}

// WithListener registers a mutation observer on the new chain.
func WithListener(l Listener) Option {
	return func(b *builder) error {
		if l == nil {
			return fmt.Errorf("%w: nil listener", ErrConfig)
		}
		b.listeners = append(b.listeners, l)
		return nil
	}
}

// WithVerifier routes all signature verification of the new chain
// through p instead of the process-wide shared verifier — e.g. one
// whose counters describe this chain alone, or with the
// verified-signature cache disabled for benchmarking.
func WithVerifier(p *Verifier) Option {
	return func(b *builder) error {
		if p == nil {
			return fmt.Errorf("%w: nil verifier", ErrConfig)
		}
		b.cfg.Verifier = p
		return nil
	}
}

// NewVerifier builds a standalone signature verifier. workers bounds
// the goroutines one batch forks across (0 means GOMAXPROCS, 1 keeps
// every check on its caller); cacheSize 0 means the default
// verified-signature cache, negative disables caching.
func NewVerifier(workers, cacheSize int) *Verifier {
	return verify.New(verify.Options{Workers: workers, CacheSize: cacheSize})
}

package mempool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/compact"
	"github.com/seldel/seldel/internal/verify"
)

// DefaultMaxBatch is the flush threshold used when Options.MaxBatch is 0.
const DefaultMaxBatch = 256

// maxAutoLinger caps the adaptive linger so a mis-measured flush (a cold
// proof-of-work seal, a disk stall) never turns into a visible stall of
// the pipeline.
const maxAutoLinger = 5 * time.Millisecond

// errLedgerContract flags a Ledger.Seal that returned neither blocks
// nor an error.
var errLedgerContract = errors.New("mempool: ledger returned no blocks and no error")

// Options parameterize a Batcher.
type Options struct {
	// MaxBatch is the soft flush threshold: a batch is sealed once it
	// holds at least this many entries. One Submit call's entries always
	// stay together, so a single oversized call may exceed it.
	// 0 means DefaultMaxBatch.
	MaxBatch int
	// Linger bounds how long the flusher waits for more submissions once
	// it holds a non-full batch. 0 selects adaptive lingering: while the
	// stream is idle the flusher seals immediately (lowest latency), but
	// once concurrent producers actually coalesce, the linger is derived
	// from the observed flush latency — waiting about one flush worth of
	// time costs little and stops per-entry waiters on a loaded chain
	// from sealing near-empty blocks.
	Linger time.Duration
	// Warm, when set, is called with each submitted group's entries so
	// their signatures pre-verify (and populate the verified-signature
	// cache) while the batch is still being assembled. It may go on
	// reading the slice after it returns. Failures are ignored here;
	// sealing re-validates authoritatively.
	Warm func(entries []*block.Entry)
	// Durable, when set, defers receipt resolution to the durability
	// point: after a successful seal the batch's resolution closure is
	// handed to Durable instead of running inline, and the installed
	// committer must run every closure exactly once — with nil once the
	// sealed blocks reached stable storage (receipts resolve), or with
	// the store-write or sync failure (receipts fail). Sealing is not
	// delayed; only the receipts are.
	Durable func(resolve func(err error))
}

// group is the unit of submission: all entries of one Submit call, each
// paired with its resolution ticket.
type group struct {
	entries []*block.Entry
	tickets []*ticket
}

// singleSubmission backs a one-entry Submit with a single allocation:
// the group's slices, the caller's receipt slice, and the ticket all
// point into this struct.
type singleSubmission struct {
	t        ticket
	entries  [1]*block.Entry
	tickets  [1]*ticket
	receipts [1]Receipt
}

// Stats are pipeline counters and backpressure gauges.
type Stats struct {
	// Batches counts sealed batches (one normal block each).
	Batches uint64
	// Entries counts entries that resolved successfully.
	Entries uint64
	// Rejected counts entries whose receipts resolved with an error.
	Rejected uint64
	// QueueDepth is the number of submission groups waiting in the
	// intake queue right now; QueueDepth near QueueCap means producers
	// are about to block (backpressure).
	QueueDepth int
	// QueueCap is the intake queue capacity.
	QueueCap int
	// AutoLinger is the linger the adaptive tuner is currently applying
	// (zero while idle, when disabled, or when a fixed Linger is set).
	AutoLinger time.Duration
	// Verify is the verification pool's activity snapshot — curve work
	// and cache effectiveness. Filled by Chain.PipelineStats; zero for a
	// bare Batcher, which does not own a pool.
	Verify verify.Stats
	// Compaction is the background compactor's activity snapshot —
	// pending truncations and blocks/bytes physically reclaimed off the
	// append path. Filled by Chain.PipelineStats; zero for a bare
	// Batcher, which does not own a compactor.
	Compaction compact.Stats
	// Index is the chain's entry-index map occupancy gauge. Filled by
	// Chain.PipelineStats; zero for a bare Batcher.
	Index IndexStats
}

// QueueFraction is the intake queue's fullness in [0,1]: QueueDepth
// over QueueCap, 0 when the pipeline has not started. Admission
// controllers shed ingress when it approaches 1 — producers are then
// about to block on the intake, which is the overload signal a serving
// front-end must answer with backpressure (429) instead of queueing.
func (s Stats) QueueFraction() float64 {
	if s.QueueCap <= 0 {
		return 0
	}
	return float64(s.QueueDepth) / float64(s.QueueCap)
}

// IndexStats describe the chain's entry-index map: Go maps never
// release buckets, so after a large cut Live can be a small fraction of
// the capacity Peak implies — the compactor then rebuilds the map
// (Rebuilds counts those shrinks).
type IndexStats struct {
	// Live is the number of entries currently indexed.
	Live int
	// Peak is the high-water entry count since the last rebuild — a
	// proxy for the bucket capacity the map is holding on to.
	Peak int
	// Rebuilds counts shrink rebuilds performed by the compactor.
	Rebuilds uint64
}

// Batcher coalesces concurrently submitted entries into blocks. All
// sealing goes through a single flusher goroutine, so producers never
// contend on the chain lock and blocks are packed as full as the offered
// load allows.
type Batcher struct {
	ledger   Ledger
	maxBatch int
	linger   time.Duration
	warm     func([]*block.Entry)
	durable  func(func(error))

	// mu guards closed; Submit holds it shared for the duration of its
	// channel sends so Close (exclusive) cannot observe closed=true while
	// a send is still in flight.
	mu     sync.RWMutex
	closed bool

	ch   chan group
	quit chan struct{}
	done chan struct{}

	// Adaptive-linger state, owned by the flusher goroutine: an EMA of
	// flush latency and whether the last batch showed actual coalescing
	// (≥2 groups sealed together, or groups already queued behind it).
	flushEMA time.Duration
	loaded   bool

	batches    atomic.Uint64
	entries    atomic.Uint64
	rejected   atomic.Uint64
	autoLinger atomic.Int64
}

// NewBatcher starts a pipeline sealing through ledger.
func NewBatcher(ledger Ledger, opts Options) *Batcher {
	maxBatch := opts.MaxBatch
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	// The intake buffer holds at least one full batch of single-entry
	// groups, so a sealed batch can reach MaxBatch even when every
	// producer submits one entry at a time.
	depth := maxBatch
	if depth < 64 {
		depth = 64
	}
	b := &Batcher{
		ledger:   ledger,
		maxBatch: maxBatch,
		linger:   opts.Linger,
		warm:     opts.Warm,
		durable:  opts.Durable,
		ch:       make(chan group, depth),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go b.run()
	return b
}

// Submit enqueues entries for inclusion in an upcoming block and returns
// one Receipt per entry, in order. It blocks only while the pipeline's
// intake is full; the receipts resolve asynchronously once the entries'
// block is sealed. All entries of one call are sealed in the same block.
// Entries must already be signed, and any references they depend on must
// already be committed (in-flight dependencies are not resolved within a
// batch).
//
// On ctx cancellation nothing has been enqueued and the error is
// ctx.Err(); after Close it is ErrClosed.
func (b *Batcher) Submit(ctx context.Context, entries ...*block.Entry) ([]Receipt, error) {
	if len(entries) == 0 {
		return nil, nil
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return nil, ErrClosed
	}
	var g group
	var receipts []Receipt
	if len(entries) == 1 {
		// The dominant shape — one producer, one entry per call — packs
		// every per-submit allocation into a single object: the ticket
		// and the backing arrays of the group's and the caller's slices.
		s := &singleSubmission{}
		s.t.done = make(chan struct{})
		s.entries[0] = entries[0]
		s.tickets[0] = &s.t
		s.receipts[0] = Receipt{t: &s.t}
		g = group{entries: s.entries[:], tickets: s.tickets[:]}
		receipts = s.receipts[:]
	} else {
		g = group{
			entries: append([]*block.Entry(nil), entries...),
			tickets: make([]*ticket, len(entries)),
		}
		receipts = make([]Receipt, len(entries))
		for i := range entries {
			t := newTicket()
			g.tickets[i] = t
			receipts[i] = Receipt{t: t}
		}
	}
	if b.warm != nil {
		// Pre-verify while the group waits for its batch: the warm hook
		// returns immediately and verifies on a goroutine of its own, so
		// the sealing flush later resolves the same signatures from cache.
		b.warm(g.entries)
	}
	select {
	case b.ch <- g:
		return receipts, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Close stops the intake, flushes every submission already accepted (all
// their receipts resolve), and waits for the flusher to exit. It is
// idempotent.
func (b *Batcher) Close() error {
	b.mu.Lock()
	already := b.closed
	b.closed = true
	b.mu.Unlock()
	if !already {
		close(b.quit)
	}
	<-b.done
	return nil
}

// Stats returns the pipeline counters and backpressure gauges.
func (b *Batcher) Stats() Stats {
	return Stats{
		Batches:    b.batches.Load(),
		Entries:    b.entries.Load(),
		Rejected:   b.rejected.Load(),
		QueueDepth: len(b.ch),
		QueueCap:   cap(b.ch),
		AutoLinger: time.Duration(b.autoLinger.Load()),
	}
}

// run is the flusher goroutine: it blocks for the first group, greedily
// drains everything else that is already queued (up to the batch
// threshold), and seals the batch as one block.
func (b *Batcher) run() {
	defer close(b.done)
	for {
		select {
		case g := <-b.ch:
			b.flush(b.collect(g))
		case <-b.quit:
			// Drain the intake: Close set closed under the exclusive
			// lock, so no Submit is or will be sending anymore.
			for {
				select {
				case g := <-b.ch:
					b.flush(b.collect(g))
				default:
					return
				}
			}
		}
	}
}

// effectiveLinger returns the linger to apply to the next batch: the
// fixed configuration when set, otherwise the adaptive value — one
// observed flush latency, but only while producers demonstrably
// coalesce. A lone producer that waits for each receipt never trips the
// load detector, so light traffic keeps its immediate-flush latency.
func (b *Batcher) effectiveLinger() time.Duration {
	if b.linger > 0 {
		return b.linger
	}
	if !b.loaded {
		b.autoLinger.Store(0)
		return 0
	}
	linger := b.flushEMA
	if linger > maxAutoLinger {
		linger = maxAutoLinger
	}
	b.autoLinger.Store(int64(linger))
	return linger
}

// collect grows a batch from the first group until the threshold is
// reached or the intake goes idle (after at most one linger period).
func (b *Batcher) collect(first group) []group {
	batch := []group{first}
	size := len(first.entries)
	var lingerC <-chan time.Time
	if linger := b.effectiveLinger(); linger > 0 {
		timer := time.NewTimer(linger)
		defer timer.Stop()
		lingerC = timer.C
	}
	for size < b.maxBatch {
		select {
		case g := <-b.ch:
			batch = append(batch, g)
			size += len(g.entries)
		default:
			if lingerC == nil {
				return batch
			}
			select {
			case g := <-b.ch:
				batch = append(batch, g)
				size += len(g.entries)
			case <-lingerC:
				return batch
			}
		}
	}
	return batch
}

// maxFlushRetries bounds re-seals of a batch whose entries all still
// validate. One retry absorbs a head race with a concurrent direct
// appender (e.g. a retention ticker appending empty blocks); the bound
// keeps a persistent batch-level failure (a broken sealer) from looping.
const maxFlushRetries = 3

// flush seals one batch as a single normal block and resolves its
// receipts. When the commit fails, entries that fail stand-alone
// validation are rejected through their receipts and the remainder is
// retried, so one bad entry cannot poison a batch. A failure with no
// offending entry is retried a bounded number of times (the chain's
// sealing primitive can lose a head race against concurrent direct
// appenders and succeed verbatim on retry) before failing the batch.
func (b *Batcher) flush(batch []group) {
	// Feed the adaptive linger: remember how long sealing takes (EMA,
	// weighted 3:1 toward history) and whether this batch showed real
	// coalescing — more than one group sealed together, or groups
	// already queued behind it.
	start := time.Now()
	groupsIn := len(batch)
	defer func() {
		d := time.Since(start)
		if b.flushEMA == 0 {
			b.flushEMA = d
		} else {
			b.flushEMA = (3*b.flushEMA + d) / 4
		}
		b.loaded = groupsIn > 1 || len(b.ch) > 0
	}()
	retries := 0
	for len(batch) > 0 {
		var entries []*block.Entry
		var tickets []*ticket
		for _, g := range batch {
			entries = append(entries, g.entries...)
			tickets = append(tickets, g.tickets...)
		}
		blocks, outcomes, err := b.ledger.Seal(entries)
		if len(blocks) > 0 {
			// The normal block holding the batch was appended — the
			// entries are on-chain even if err reports a later failure
			// (e.g. the summary step lost a race to a concurrent direct
			// committer, who appended the identical summary). Retrying
			// would seal duplicates, so resolve the receipts now.
			sealed := blocks[0]
			num, hash := sealed.Header.Number, sealed.Hash()
			resolve := func(syncErr error) {
				if syncErr != nil {
					// The blocks sealed but never became durable (a store
					// write or the group fsync failed): receipts must not
					// claim durability, so they fail with that error.
					for _, t := range tickets {
						t.fail(syncErr)
					}
					b.rejected.Add(uint64(len(tickets)))
					return
				}
				// Counted first: whoever a receipt wakes already reads it.
				b.entries.Add(uint64(len(tickets)))
				for i, t := range tickets {
					mark := MarkNone
					if i < len(outcomes) {
						mark = outcomes[i]
					}
					t.resolve(Sealed{
						Ref:       block.Ref{Block: num, Entry: uint32(i)},
						Block:     num,
						BlockHash: hash,
						Mark:      mark,
					})
				}
			}
			b.batches.Add(1)
			if b.durable != nil {
				b.durable(resolve)
			} else {
				resolve(nil)
			}
			return
		}
		if err == nil {
			// Defensive: a ledger must return blocks or an error.
			for _, t := range tickets {
				t.fail(errLedgerContract)
			}
			return
		}
		kept := batch[:0]
		rejected := false
		for _, g := range batch {
			// Not compacted in place: the warm hook may still be reading
			// g.entries.
			okEntries := make([]*block.Entry, 0, len(g.entries))
			okTickets := g.tickets[:0]
			for i, e := range g.entries {
				if verr := b.ledger.ValidateEntries([]*block.Entry{e}); verr != nil {
					g.tickets[i].fail(verr)
					rejected = true
					continue
				}
				okEntries = append(okEntries, e)
				okTickets = append(okTickets, g.tickets[i])
			}
			if len(okEntries) > 0 {
				kept = append(kept, group{entries: okEntries, tickets: okTickets})
			}
		}
		if !rejected {
			if retries < maxFlushRetries {
				retries++
				batch = kept
				continue
			}
			n := 0
			for _, g := range kept {
				for _, t := range g.tickets {
					t.fail(err)
					n++
				}
			}
			b.rejected.Add(uint64(n))
			return
		}
		b.rejected.Add(uint64(len(entries) - groupLen(kept)))
		batch = kept
	}
}

func groupLen(batch []group) int {
	n := 0
	for _, g := range batch {
		n += len(g.entries)
	}
	return n
}

package mempool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/verify"
)

// maxBatch is the soft flush threshold: a batch is sealed once it holds
// at least this many entries. One Submit call's entries always stay
// together, so a single oversized call may exceed it.
const maxBatch = 256

// IntakeCap is the intake queue's capacity in submission groups, the
// same for every Batcher: one full batch of single-entry groups, so a
// sealed batch can reach maxBatch even when every producer submits one
// entry at a time. A producer that finds it full waits.
const IntakeCap = maxBatch

// errLedgerContract flags a Ledger.Seal that returned neither blocks
// nor an error.
var errLedgerContract = errors.New("mempool: ledger returned no blocks and no error")

// Options parameterize a Batcher.
type Options struct {
	// Warm, when set, is called with each submitted group's entries,
	// one call at a time and in the order the groups enter the intake,
	// so their signatures pre-verify (and populate the verified-signature
	// cache) while the batch is still being assembled. It may go on
	// reading the slice until the channel it returns is closed, and the
	// flusher waits for that before sealing the group, so the seal
	// finds every signature in the cache instead of racing the warm-up
	// to the curve. A nil channel means nothing to wait for. Failures
	// are ignored here; sealing re-validates authoritatively.
	Warm func(entries []*block.Entry) <-chan struct{}
	// Durable, when set, defers receipt resolution to the durability
	// point: after a successful seal the batch's resolution closure is
	// handed to Durable instead of running inline, and the installed
	// hook must run every closure exactly once — with nil once the
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
	// warmed is closed once the warm hook is done with entries; nil
	// when there is nothing to wait for.
	warmed <-chan struct{}
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
	// QueueDepth is the number of submission groups waiting right now:
	// those in the intake queue, plus the one the flusher holds back
	// for the next block while its warm-up runs. QueueDepth near
	// QueueCap means producers are about to block (backpressure).
	QueueDepth int
	// QueueCap is the intake queue capacity: IntakeCap once the pipeline
	// has started, 0 before.
	QueueCap int
	// Verify is the verification pool's activity snapshot — curve work
	// and cache effectiveness. Filled by Chain.PipelineStats; zero for a
	// bare Batcher, which does not own a pool.
	Verify verify.Stats
	// Compaction is the chain's truncation activity — pending cuts and
	// blocks/bytes physically reclaimed off the append path. Filled by
	// Chain.PipelineStats; zero for a bare Batcher, which cuts nothing.
	Compaction CompactionStats
	// Index is the chain's entry-index map occupancy gauge. Filled by
	// Chain.PipelineStats; zero for a bare Batcher.
	Index IndexStats
}

// QueueFraction is the intake queue's fullness in [0,1]: QueueDepth
// over QueueCap, 0 when the pipeline has not started. Near 1, producers
// are about to block on the intake.
func (s Stats) QueueFraction() float64 {
	if s.QueueCap <= 0 {
		return 0
	}
	return float64(s.QueueDepth) / float64(s.QueueCap)
}

// CompactionStats is a snapshot of the physical side of truncation,
// which a chain runs after the append that truncated.
type CompactionStats struct {
	// Pending is the number of truncations staged but not yet executed.
	Pending int
	// Truncations counts executed truncations.
	Truncations uint64
	// BlocksCompacted counts blocks whose physical cleanup ran.
	BlocksCompacted uint64
	// BytesReclaimed totals the canonical encoded size of compacted
	// blocks.
	BytesReclaimed int64
	// LastMarker is the new Genesis marker of the last executed
	// truncation (0 before any).
	LastMarker uint64
}

// IndexStats describe the chain's entry-index map: Go maps never
// release buckets, so after a large cut Live can be a small fraction of
// the capacity Peak implies — the cut's physical side then rebuilds the
// map (Rebuilds counts those shrinks).
type IndexStats struct {
	// Live is the number of entries currently indexed.
	Live int
	// Peak is the high-water entry count since the last rebuild — a
	// proxy for the bucket capacity the map is holding on to.
	Peak int
	// Rebuilds counts shrink rebuilds run after truncations.
	Rebuilds uint64
}

// Batcher coalesces concurrently submitted entries into blocks. All
// sealing goes through a single flusher goroutine, so producers never
// contend on the chain lock and blocks are packed as full as the offered
// load allows.
type Batcher struct {
	ledger  Ledger
	warm    func([]*block.Entry) <-chan struct{}
	durable func(func(error))
	// after is the ledger's AfterResolve, nil when it is no PostResolver.
	after func()

	// mu guards closed; Submit holds it shared for the duration of its
	// channel sends so Close (exclusive) cannot observe closed=true while
	// a send is still in flight.
	mu     sync.RWMutex
	closed bool

	ch chan group
	// turn is held (one slot) from a Submit's warm-up to its send on
	// ch, so warm-ups queue in intake order.
	turn chan struct{}
	quit chan struct{}
	done chan struct{}

	// holding is set while the flusher holds a group taken off the
	// intake back for the next block (gather), so QueueDepth counts it.
	holding atomic.Bool

	batches  atomic.Uint64
	entries  atomic.Uint64
	rejected atomic.Uint64
}

// NewBatcher starts a pipeline sealing through ledger.
func NewBatcher(ledger Ledger, opts Options) *Batcher {
	b := &Batcher{
		ledger:  ledger,
		warm:    opts.Warm,
		durable: opts.Durable,
		ch:      make(chan group, IntakeCap),
		turn:    make(chan struct{}, 1),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if pr, ok := ledger.(PostResolver); ok {
		b.after = pr.AfterResolve
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
// ctx.Err() (a warm-up already queued still runs); after Close it is
// ErrClosed.
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
	// The turn keeps warm-ups queued in the order the flusher takes the
	// groups, so the group it waits on is the one verified first.
	select {
	case b.turn <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-b.turn }()
	if b.warm != nil {
		// Pre-verify while the group waits for its batch: the warm hook
		// queues the group and returns, so the sealing flush later
		// resolves the same signatures from cache.
		g.warmed = b.warm(g.entries)
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
	depth := len(b.ch)
	if b.holding.Load() {
		depth++
	}
	return Stats{
		Batches:    b.batches.Load(),
		Entries:    b.entries.Load(),
		Rejected:   b.rejected.Load(),
		QueueDepth: depth,
		QueueCap:   cap(b.ch),
	}
}

// run is the flusher goroutine: it takes the oldest queued group, or
// the one the last gather held back, and seals it with the groups
// queued behind it whose warm-ups have ended.
func (b *Batcher) run() {
	defer close(b.done)
	var head group
	held := false
	for {
		if !held {
			select {
			case head = <-b.ch:
			case <-b.quit:
				// Drain the intake: Close set closed under the exclusive
				// lock, so no Submit is or will be sending anymore.
				select {
				case head = <-b.ch:
				default:
					return
				}
			}
		}
		var batch []group
		batch, head, held = b.gather(head)
		b.flush(batch)
	}
}

// gather waits for head's warm-up, then takes the groups queued behind
// it, in order, while each one's warm-up has already ended, up to the
// batch threshold. So a block holds what is verified, not what is in
// flight. The first group still warming is returned as next (held
// true): it heads the following block, whose verification then
// overlaps this block's seal. Nothing reads a group's entries while
// its warm-up may still be reading them.
func (b *Batcher) gather(head group) (batch []group, next group, held bool) {
	if head.warmed != nil {
		<-head.warmed
	}
	b.holding.Store(false)
	batch = []group{head}
	size := len(head.entries)
	for size < maxBatch {
		select {
		case g := <-b.ch:
			if !g.isWarm() {
				b.holding.Store(true)
				return batch, g, true
			}
			batch = append(batch, g)
			size += len(g.entries)
		default:
			return batch, group{}, false
		}
	}
	return batch, group{}, false
}

// isWarm reports whether g's warm-up has ended, without waiting.
func (g group) isWarm() bool {
	if g.warmed == nil {
		return true
	}
	select {
	case <-g.warmed:
		return true
	default:
		return false
	}
}

// maxFlushRetries bounds re-seals of a batch whose entries all still
// validate. One retry absorbs a lost head race: a concurrent
// Chain.AppendEmpty or AppendBlock beside a chain's own pipeline, or a
// block received from a peer beside a node's proposal. The bound keeps a
// persistent batch-level failure (a broken sealer) from looping. A
// node's ErrSummaryPending never reaches this retry: while the summary
// slot is due, its ValidateEntries rejects every entry with it.
const maxFlushRetries = 3

// flush seals one batch as a single normal block and resolves its
// receipts. When the commit fails, entries that fail stand-alone
// validation are rejected through their receipts and the remainder is
// retried, so one bad entry cannot poison a batch. A failure with no
// offending entry is retried a bounded number of times (the chain's
// sealing primitive can lose a head race against concurrent direct
// appenders and succeed verbatim on retry) before failing the batch.
func (b *Batcher) flush(batch []group) {
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
			if b.after != nil {
				b.after()
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
			// Compacted in place: gather joined every warm-up.
			okEntries := g.entries[:0]
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

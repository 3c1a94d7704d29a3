package chain

import (
	"fmt"
	"sync"
	"time"
)

// DurabilityMode selects when submission receipts resolve relative to
// the store's durability point.
type DurabilityMode uint8

const (
	// DurabilitySeal is the default contract: a receipt resolves as
	// soon as its block is sealed, appended, and handed to the store
	// listeners. Durability then follows the store's own policy (the
	// segment store fsyncs on segment roll, truncation and Close) — a
	// crash can lose the unsynced tail even though its receipts
	// resolved.
	DurabilitySeal DurabilityMode = iota
	// DurabilityGroup is the group-commit contract: receipts resolve
	// only after Durability.Sync confirmed their blocks on stable
	// storage. Sealing keeps running ahead; a single committer
	// goroutine drains every batch sealed since the previous sync and
	// makes them durable with ONE fsync, so under load many blocks
	// share each sync while an idle chain still syncs per batch.
	DurabilityGroup
)

// Valid reports whether m is a defined mode.
func (m DurabilityMode) Valid() bool {
	return m == DurabilitySeal || m == DurabilityGroup
}

// Durability configures the receipt-durability contract of the
// submission pipeline (Config.Durability).
type Durability struct {
	// Mode selects the contract; zero is DurabilitySeal.
	Mode DurabilityMode
	// Sync forces everything the store buffered to stable storage. It
	// is required for DurabilityGroup (the façade wires the attached
	// store's Sync) and is called from the committer goroutine only,
	// outside the chain lock.
	Sync func() error
	// GroupWindow bounds how long the committer waits after the first
	// pending batch before issuing the group sync, accumulating more
	// sealed blocks into the same fsync. It is an upper bound on the
	// extra receipt latency group commit adds. Zero syncs as soon as
	// the committer is free (pure self-clocking: batching then comes
	// only from fsync latency itself, which on a slow disk is plenty;
	// on a fast device each block tends to get its own sync). Set a
	// few multiples of the expected sealing cadence to trade bounded
	// latency for fewer fsyncs.
	GroupWindow time.Duration
}

// groupCommitter is the single goroutine that turns "sealed" into
// "durable" under DurabilityGroup. Batches hand it their receipt-
// resolution closure; it drains everything queued since the last sync,
// issues one Sync, then runs the closures (with the sync error, if
// any, so receipts fail rather than claim durability). The batching is
// self-clocking: while one fsync is in flight, later batches queue up
// and ride the next one.
type groupCommitter struct {
	sync   func() error
	window time.Duration
	ch     chan func(error)

	quit    chan struct{}
	done    chan struct{}
	closeMu sync.Mutex
	closed  bool
}

func newGroupCommitter(sync func() error, window time.Duration) *groupCommitter {
	g := &groupCommitter{
		sync:   sync,
		window: window,
		ch:     make(chan func(error), 1024),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go g.run()
	return g
}

// enqueue schedules one batch's resolution for the next sync. Called
// by the pipeline flusher only, which the chain guarantees has exited
// before Close is allowed to run.
func (g *groupCommitter) enqueue(resolve func(error)) {
	g.ch <- resolve
}

func (g *groupCommitter) run() {
	defer close(g.done)
	for {
		select {
		case f := <-g.ch:
			g.commit(f)
		case <-g.quit:
			// Drain: the flusher has stopped enqueueing (the batcher
			// closes strictly before the committer), so whatever is
			// queued now is everything that will ever arrive.
			for {
				select {
				case f := <-g.ch:
					g.commit(f)
				default:
					return
				}
			}
		}
	}
}

// commit gathers every resolution queued so far — waiting out the
// group window, if one is configured, so later seals can join — makes
// their blocks durable with one sync, and releases them.
func (g *groupCommitter) commit(first func(error)) {
	batch := []func(error){first}
	if g.window > 0 {
		timer := time.NewTimer(g.window)
	window:
		for {
			select {
			case f := <-g.ch:
				batch = append(batch, f)
			case <-timer.C:
				break window
			case <-g.quit:
				// Shutdown cancels the wait, not the sync: whatever has
				// been collected commits now, the run loop drains the rest.
				timer.Stop()
				break window
			}
		}
	}
drain:
	for {
		select {
		case f := <-g.ch:
			batch = append(batch, f)
		default:
			break drain
		}
	}
	err := g.sync()
	for _, f := range batch {
		f(err)
	}
}

// Close drains pending resolutions (issuing their final sync) and
// stops the committer. Idempotent; concurrent calls block until the
// drain completes.
func (g *groupCommitter) Close() error {
	g.closeMu.Lock()
	if !g.closed {
		g.closed = true
		close(g.quit)
	}
	g.closeMu.Unlock()
	<-g.done
	return nil
}

// validate checks the durability configuration at chain construction.
func (d Durability) validate() error {
	if !d.Mode.Valid() {
		return fmt.Errorf("%w: invalid durability mode %d", ErrConfig, d.Mode)
	}
	if d.Mode == DurabilityGroup && d.Sync == nil {
		return fmt.Errorf("%w: DurabilityGroup requires Durability.Sync (attach a durable store)", ErrConfig)
	}
	if d.GroupWindow < 0 {
		return fmt.Errorf("%w: negative GroupWindow", ErrConfig)
	}
	return nil
}

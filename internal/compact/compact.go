package compact

import (
	"context"
	"sync"
	"sync/atomic"

	"github.com/seldel/seldel/internal/manifest"
)

// Event is one executed logical truncation whose physical work is
// pending: the marker moved from OldMarker to NewMarker, cutting Blocks
// blocks totalling Bytes of canonical encoding.
type Event struct {
	OldMarker, NewMarker uint64
	Blocks               uint64
	Bytes                int64
	// Record is the deletion-manifest record describing this truncation
	// (what was cut, which marks executed, under whose authority), built
	// by the chain under the append lock while the cut blocks were still
	// reachable. Listeners that persist an audit trail consume it; nil
	// on events predating the manifest subsystem.
	Record *manifest.Record
}

// queueHint is the initial capacity of the pending-event staging
// buffer (it grows as needed).
const queueHint = 16

// Stats is a snapshot of compactor activity — the CompactionStats
// gauges surfaced through the chain's PipelineStats.
type Stats struct {
	// Pending is the number of truncation events staged but not yet
	// executed.
	Pending int
	// Truncations counts executed truncation events.
	Truncations uint64
	// BlocksCompacted counts blocks whose physical cleanup ran.
	BlocksCompacted uint64
	// BytesReclaimed totals the canonical encoded size of compacted
	// blocks.
	BytesReclaimed int64
	// LastMarker is the new Genesis marker of the last executed event
	// (0 before any truncation).
	LastMarker uint64
}

// item is one staged element: a truncation event, or a Wait barrier.
type item struct {
	ev      Event
	barrier chan struct{}
}

// Compactor owns the background execution of truncation events. The
// zero value is not usable; call New.
type Compactor struct {
	apply func(Event)

	// mu guards queue, pending, and closed. Never held while apply
	// runs, so apply may take locks of its own (the chain lock).
	mu      sync.Mutex
	queue   []item
	pending int
	closed  bool

	// kick wakes the runner when the queue goes non-empty.
	kick chan struct{}
	quit chan struct{}
	done chan struct{}

	truncations atomic.Uint64
	blocks      atomic.Uint64
	bytes       atomic.Int64
	lastMarker  atomic.Uint64
}

// New starts a compactor executing events through apply.
func New(apply func(Event)) *Compactor {
	k := &Compactor{
		apply: apply,
		queue: make([]item, 0, queueHint),
		kick:  make(chan struct{}, 1),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go k.run()
	return k
}

// TryEnqueue stages one truncation event for background execution and
// reports whether it was accepted. It never blocks and never runs
// apply itself, so callers may hold locks that apply needs — the chain
// stages under its own lock, which is what orders events. It returns
// false after Close; the caller must then run the event via Enqueue
// once it holds nothing apply requires.
func (k *Compactor) TryEnqueue(ev Event) bool {
	k.mu.Lock()
	if k.closed {
		k.mu.Unlock()
		return false
	}
	k.queue = append(k.queue, item{ev: ev})
	k.pending++
	k.mu.Unlock()
	select {
	case k.kick <- struct{}{}:
	default:
	}
	return true
}

// Enqueue hands one truncation event to the compactor, executing it
// inline after Close, when the background runner is gone. Callers
// must not hold locks that apply takes.
func (k *Compactor) Enqueue(ev Event) {
	if !k.TryEnqueue(ev) {
		k.execute(ev)
	}
}

// Wait blocks until every event staged before the call has executed,
// or ctx is cancelled. It is the determinism barrier for tests and
// experiments that assert on post-truncation state (store contents,
// reclaimed bytes).
func (k *Compactor) Wait(ctx context.Context) error {
	barrier := make(chan struct{})
	k.mu.Lock()
	if k.closed {
		k.mu.Unlock()
		<-k.done
		return nil
	}
	k.queue = append(k.queue, item{barrier: barrier})
	k.mu.Unlock()
	select {
	case k.kick <- struct{}{}:
	default:
	}
	select {
	case <-barrier:
		return nil
	case <-k.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close drains the staging queue (every staged event still executes)
// and stops the background goroutine. Enqueue afterwards runs events
// inline. Close is idempotent; concurrent calls block until the drain
// completes.
func (k *Compactor) Close() {
	k.mu.Lock()
	already := k.closed
	k.closed = true
	k.mu.Unlock()
	if !already {
		close(k.quit)
	}
	<-k.done
}

// Stats returns a snapshot of compactor activity.
func (k *Compactor) Stats() Stats {
	k.mu.Lock()
	pending := k.pending
	k.mu.Unlock()
	return Stats{
		Pending:         pending,
		Truncations:     k.truncations.Load(),
		BlocksCompacted: k.blocks.Load(),
		BytesReclaimed:  k.bytes.Load(),
		LastMarker:      k.lastMarker.Load(),
	}
}

// run executes staged items until Close, then drains. Items are popped
// one at a time so apply never runs under the compactor's mutex.
func (k *Compactor) run() {
	defer close(k.done)
	for {
		select {
		case <-k.kick:
			k.drain()
		case <-k.quit:
			// Close set closed under the mutex, so nothing new can be
			// staged; what is queued is all there is.
			k.drain()
			return
		}
	}
}

// drain pops and executes until the queue is empty.
func (k *Compactor) drain() {
	for {
		k.mu.Lock()
		if len(k.queue) == 0 {
			k.mu.Unlock()
			return
		}
		it := k.queue[0]
		k.queue[0] = item{}
		k.queue = k.queue[1:]
		if it.barrier == nil {
			k.pending--
		}
		k.mu.Unlock()
		if it.barrier != nil {
			close(it.barrier)
			continue
		}
		k.execute(it.ev)
	}
}

func (k *Compactor) execute(ev Event) {
	k.apply(ev)
	k.truncations.Add(1)
	k.blocks.Add(ev.Blocks)
	k.bytes.Add(ev.Bytes)
	k.lastMarker.Store(ev.NewMarker)
}

package chain

import (
	"context"
	"sync"
	"time"

	"github.com/seldel/seldel/internal/manifest"
	"github.com/seldel/seldel/internal/mempool"
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
	// under the append lock while the cut blocks were still reachable.
	// Every truncation carries one; stores write it with the prune.
	Record *manifest.Record
}

// stageItem is one piece of the work that follows an append: exactly
// one of resolve, cut and barrier is set.
type stageItem struct {
	// resolve is a DurabilityGroup batch's receipt resolution. It runs
	// after the sync that covers the batch's block, with its error.
	resolve func(error)
	// cut is a truncation's physical side, held until listened is
	// closed: the append that staged it has stored its blocks and run
	// its OnAppend listeners, so the store is never cut below a summary
	// block it has not written.
	cut      *Event
	listened <-chan struct{}
	// barrier is closed once everything queued before it has run.
	barrier chan struct{}
}

// stage runs the work that follows an append, off the appender and in
// the order it was queued: group-commit syncs, each resolving the
// receipts of the batches it made durable, and the physical side of
// truncations (§IV-C: "the old sequence can be cut off and deleted").
// Its one goroutine starts when work is queued on an idle stage and
// exits once the queue is empty, so an idle chain holds none. Pushing
// takes only the stage's own mutex, which is never held while an item
// runs: the chain stages a cut under its lock, which is what keeps cuts
// in marker order across concurrent appenders, and the cut then takes
// that lock itself.
type stage struct {
	sync   func() error
	window time.Duration
	cut    func(Event)
	// closing is closed by close: a group window then ends at once.
	closing   chan struct{}
	closeOnce sync.Once

	mu      sync.Mutex
	queue   []stageItem
	running bool
	stats   mempool.CompactionStats
}

func newStage(sync func() error, window time.Duration, cut func(Event)) *stage {
	return &stage{sync: sync, window: window, cut: cut, closing: make(chan struct{})}
}

// push queues it behind everything queued before, starting the
// goroutine if the stage is idle. It never blocks on the work.
func (s *stage) push(it stageItem) {
	s.mu.Lock()
	s.queue = append(s.queue, it)
	if it.cut != nil {
		s.stats.Pending++
	}
	start := !s.running
	s.running = true
	s.mu.Unlock()
	if start {
		go s.run()
	}
}

// pop takes the oldest item. On an empty queue it marks the stage idle
// and reports false; the goroutine then exits.
func (s *stage) pop() (stageItem, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 {
		s.running = false
		return stageItem{}, false
	}
	it := s.queue[0]
	s.queue[0] = stageItem{}
	s.queue = s.queue[1:]
	return it, true
}

func (s *stage) run() {
	for {
		it, ok := s.pop()
		switch {
		case !ok:
			return
		case it.barrier != nil:
			close(it.barrier)
		case it.cut != nil:
			if it.listened != nil {
				<-it.listened
			}
			s.cut(*it.cut)
			s.mu.Lock()
			s.stats.Pending--
			s.stats.Truncations++
			s.stats.BlocksCompacted += it.cut.Blocks
			s.stats.BytesReclaimed += it.cut.Bytes
			s.stats.LastMarker = it.cut.NewMarker
			s.mu.Unlock()
		default:
			s.commit(it.resolve)
		}
	}
}

// commit waits out the group window, so batches sealed meanwhile join,
// then makes every batch queued ahead of the next cut or barrier
// durable with one sync and resolves their receipts with its error. A
// sync in flight is what lets later batches queue up and share the
// next one.
func (s *stage) commit(first func(error)) {
	if s.window > 0 {
		timer := time.NewTimer(s.window)
		select {
		case <-timer.C:
		case <-s.closing:
			// Shutdown cancels the wait, not the sync.
			timer.Stop()
		}
	}
	batch := []func(error){first}
	s.mu.Lock()
	for len(s.queue) > 0 && s.queue[0].resolve != nil {
		batch = append(batch, s.queue[0].resolve)
		s.queue[0] = stageItem{}
		s.queue = s.queue[1:]
	}
	s.mu.Unlock()
	err := s.sync()
	for _, resolve := range batch {
		resolve(err)
	}
}

// wait blocks until everything queued before the call has run, or ctx
// is cancelled. An idle stage returns at once, starting nothing.
func (s *stage) wait(ctx context.Context) error {
	s.mu.Lock()
	if !s.running {
		s.mu.Unlock()
		return nil
	}
	barrier := make(chan struct{})
	s.queue = append(s.queue, stageItem{barrier: barrier})
	s.mu.Unlock()
	select {
	case <-barrier:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// close ends any group window and waits until the queue has drained.
// Work queued after it still runs, on a goroutine of its own. Close is
// idempotent.
func (s *stage) close() {
	s.closeOnce.Do(func() { close(s.closing) })
	_ = s.wait(context.Background())
}

func (s *stage) snapshot() mempool.CompactionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

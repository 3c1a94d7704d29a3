package main

import (
	"sync"
	"sync/atomic"

	"github.com/seldel/seldel"
)

// observer is the chain listener every run installs, traced or not. It
// is registered after the store's own recorder, so by the time
// OnTruncate reaches it the store has been pruned: that is the moment a
// deletion request has become physical erasure.
type observer struct {
	t *tracer // nil on an untraced run

	head      atomic.Uint64
	blocks    atomic.Uint64
	summaries atomic.Uint64
	carried   atomic.Uint64

	mu sync.Mutex
	// truncated is the workload's hook: it looks its pending victims up
	// and times the ones that are gone.
	truncated func()
	// sumAppend is when each recent summary's OnAppend ran (traced runs).
	sumAppend map[uint64]int64
}

func newObserver(t *tracer) *observer {
	return &observer{t: t, sumAppend: make(map[uint64]int64)}
}

func (o *observer) setTruncated(f func()) {
	o.mu.Lock()
	o.truncated = f
	o.mu.Unlock()
}

// OnAppend implements seldel.Listener.
func (o *observer) OnAppend(b *seldel.Block) {
	num := b.Header.Number
	o.head.Store(num)
	o.blocks.Add(1)
	if b.IsSummary() {
		o.summaries.Add(1)
		o.carried.Add(uint64(len(b.Carried)))
	}
	if o.t == nil {
		return
	}
	now := o.t.now()
	if b.IsSummary() {
		o.mu.Lock()
		o.sumAppend[num] = now
		o.mu.Unlock()
	}
	if o.t.active() {
		o.t.mu.Lock()
		o.t.block(num).appendExit = now
		o.t.mu.Unlock()
	}
}

// OnTruncate implements seldel.Listener.
func (o *observer) OnTruncate(_, _ uint64) {
	o.mu.Lock()
	hook := o.truncated
	o.mu.Unlock()
	if hook != nil {
		hook()
	}
	if o.t == nil {
		return
	}
	// The decorated store has just recorded which summary shifted the
	// marker; the lag runs from that summary's OnAppend to here.
	end := o.t.now()
	o.t.mu.Lock()
	summary := o.t.lastDel.summaryBlock
	o.t.mu.Unlock()
	o.mu.Lock()
	start, ok := o.sumAppend[summary]
	for n := range o.sumAppend {
		if n <= summary {
			delete(o.sumAppend, n)
		}
	}
	o.mu.Unlock()
	if ok {
		o.t.mu.Lock()
		o.t.truncs = append(o.t.truncs, ival{start, end})
		o.t.mu.Unlock()
	}
}

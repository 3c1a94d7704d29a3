package serve

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// AdmissionOptions tune when the server starts shedding writes.
type AdmissionOptions struct {
	// ShedFraction is the intake-queue fullness (mempool
	// Stats.QueueFraction) at which submits are shed. It also derives
	// the default MaxPending. Default 0.75; values outside (0,1] are
	// replaced by the default.
	ShedFraction float64
	// MaxPending caps entries this server has accepted whose receipts
	// have not yet resolved — the exact, server-local admission budget.
	// 0 derives it from the backend's intake capacity at startup
	// (ShedFraction × QueueCap, floor 64); negative disables the cap.
	MaxPending int
	// Poll is the backpressure-gauge sampling interval. The pending
	// budget is exact and per-request; the sampled queue gauge covers
	// OTHER producers feeding the same pipeline (in-process writers),
	// for which a short staleness window is fine.
	// Default 2ms.
	Poll time.Duration
	// RetryAfter is the client backoff hint on 429 responses.
	// Default 1s.
	RetryAfter time.Duration
}

func (o AdmissionOptions) withDefaults() AdmissionOptions {
	if o.ShedFraction <= 0 || o.ShedFraction > 1 {
		o.ShedFraction = 0.75
	}
	if o.Poll <= 0 {
		o.Poll = 2 * time.Millisecond
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	return o
}

// admission is the server's load shedder. Two signals compose:
//
//   - pending: an exact atomic count of entries accepted by THIS server
//     whose receipts have not resolved. It bounds how much unsealed work
//     the front-end can have outstanding, independent of gauge staleness,
//     and is what guarantees sheds happen before the intake saturates —
//     the budget is set below the queue's capacity.
//   - queueFrac: the pipeline's sampled intake-queue fullness. This
//     covers producers the pending count cannot see (other in-process
//     writers sharing the chain or node), at the cost of one poll
//     interval of staleness.
//
// Both trip the same answer: 429 with Retry-After, before the queue is
// full, so no HTTP handler ever parks on a saturated intake.
type admission struct {
	opts       AdmissionOptions
	maxPending int64

	pending   atomic.Int64
	queueFrac atomic.Uint64 // math.Float64bits
	sheds     atomic.Uint64
	admitted  atomic.Uint64

	poll func() float64 // reads the live queue fraction

	quit chan struct{}
	done sync.WaitGroup
}

func newAdmission(opts AdmissionOptions, queueCap int, poll func() float64) *admission {
	opts = opts.withDefaults()
	a := &admission{opts: opts, poll: poll, quit: make(chan struct{})}
	switch {
	case opts.MaxPending > 0:
		a.maxPending = int64(opts.MaxPending)
	case opts.MaxPending == 0:
		mp := int64(opts.ShedFraction * float64(queueCap))
		if mp < 64 {
			mp = 64
		}
		// The derived budget must sit strictly below the intake capacity:
		// every HTTP submit is one queue group of >= 1 entries, so pending
		// entries < QueueCap groups means the front-end alone can never
		// fill the intake — handlers shed instead of parking on it.
		if queueCap > 0 && mp >= int64(queueCap) {
			mp = max(int64(queueCap)-1, 1)
		}
		a.maxPending = mp
	default:
		a.maxPending = math.MaxInt64
	}
	a.done.Add(1)
	go a.run()
	return a
}

func (a *admission) run() {
	defer a.done.Done()
	t := time.NewTicker(a.opts.Poll)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			a.queueFrac.Store(math.Float64bits(a.poll()))
		case <-a.quit:
			return
		}
	}
}

func (a *admission) close() {
	close(a.quit)
	a.done.Wait()
}

// admit reserves n entries of the pending budget. ok=false means the
// request must be shed (nothing was reserved); otherwise the caller
// must release(n) once every receipt resolved (or the submit failed).
func (a *admission) admit(n int) bool {
	if math.Float64frombits(a.queueFrac.Load()) >= a.opts.ShedFraction {
		a.sheds.Add(1)
		return false
	}
	if a.pending.Add(int64(n)) > a.maxPending {
		a.pending.Add(int64(-n))
		a.sheds.Add(1)
		return false
	}
	a.admitted.Add(1)
	return true
}

func (a *admission) release(n int) { a.pending.Add(int64(-n)) }

// retryAfterSec is the Retry-After header value in whole seconds (≥ 1).
func (a *admission) retryAfterSec() int {
	s := int(a.opts.RetryAfter / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

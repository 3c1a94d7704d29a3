// Package loadgen is an open-loop request scheduler: request i fires at
// start + i/Rate whether or not earlier responses have come back, so a
// stalled server accumulates scheduled-but-unanswered requests instead
// of throttling its own measurement (no coordinated omission). Its one
// caller is the repo benchmark (benchmark/, through seldel.RunLoad),
// which times each request from its scheduled tick.
package loadgen

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Class is a fire function's verdict about one request.
type Class int

const (
	OK      Class = iota // the request succeeded
	Shed                 // the server refused it with backpressure (HTTP 429)
	Errored              // transport error, 5xx, bad reply
)

// Options configure an open-loop run. Rate, Requests and Fire are
// required.
type Options struct {
	Rate     float64 // offered load, requests per second
	Requests int     // requests to schedule
	// MaxInflight is a safety valve: a request scheduled while this many
	// are outstanding is counted as Dropped instead of fired, so a wedged
	// server cannot make the harness spawn unbounded goroutines. It does
	// not slow the schedule down. Default 4096.
	MaxInflight int
	// Fire issues request i and classifies the outcome, on a goroutine
	// of its own; many can be in flight at once.
	Fire func(ctx context.Context, i int) Class
}

// Summary counts one run's requests by outcome.
type Summary struct {
	Scheduled int64
	OKs       int64
	Sheds     int64
	Errors    int64
	Dropped   int64 // hit MaxInflight, never fired
}

// Run drives opts.Fire open-loop: it sleeps to each tick and fires
// without waiting for any earlier response. Cancelling ctx stops the
// schedule; Run returns once every fired request has.
func Run(ctx context.Context, opts Options) Summary {
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = 4096
	}
	interval := time.Duration(float64(time.Second) / opts.Rate)
	var (
		wg                                  sync.WaitGroup
		inflight, oks, sheds, errs, dropped atomic.Int64
		scheduled                           int64
	)
	start := time.Now()
	for i := 0; i < opts.Requests; i++ {
		// Every due time is computed from start, so a late wakeup (GC,
		// scheduler noise) does not shift later ticks.
		if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		scheduled++
		if inflight.Load() >= int64(opts.MaxInflight) {
			dropped.Add(1)
			continue
		}
		inflight.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer inflight.Add(-1)
			switch opts.Fire(ctx, i) {
			case OK:
				oks.Add(1)
			case Shed:
				sheds.Add(1)
			default:
				errs.Add(1)
			}
		}(i)
	}
	wg.Wait()
	return Summary{
		Scheduled: scheduled,
		OKs:       oks.Load(),
		Sheds:     sheds.Load(),
		Errors:    errs.Load(),
		Dropped:   dropped.Load(),
	}
}

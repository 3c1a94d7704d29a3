package main

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"github.com/seldel/seldel"
)

// Closed-loop shape of erasure: two producers, each keeping four
// batches of 32 entries in flight.
const (
	producers      = 2
	flightsPerProd = 4
	batchEntries   = 32
	// deleteBatch requests go out together once the deletion debt
	// (deleteShare × entries appended) has reached that many.
	deleteBatch = 8
	deleteShare = 0.06
	// invalidEvery-th deletion request is signed by the wrong owner and
	// must come back rejected.
	invalidEvery = 10
	// tailLimit is how long after its window a workload may take to
	// erase the victims still pending.
	tailLimit = 20 * time.Second
)

// flight is one Submit call whose receipts have not all resolved yet.
type flight struct {
	start time.Time
	on    bool
	k0, n int       // data batch
	dels  []*victim // deletion batch
	rs    []seldel.Receipt
}

// deletions builds n signed requests against live victims. Every
// invalidEvery-th request overall is signed by another owner.
func (r *run) deletions(rng *rand.Rand, n int, at time.Time) ([]*victim, []*seldel.Entry) {
	var vs []*victim
	var es []*seldel.Entry
	for i := 0; i < n; i++ {
		k, ref, ok := r.acks.pick(rng, r.clock.offered(), r.set.live)
		if !ok {
			break
		}
		v := &victim{k: k, ref: ref, owner: r.gen.owner(k), valid: true, submitAt: at}
		signer := v.owner
		if r.delRequests.Add(1)%invalidEvery == 0 {
			v.valid = false
			signer = (v.owner + 1) % ownerKeys
			r.delInvalid.Add(1)
		}
		vs = append(vs, v)
		es = append(es, r.gen.deletion(signer, ref))
	}
	return vs, es
}

// settle checks a deletion request's outcome against what was injected
// and queues approved victims for erase timing.
func (r *run) settle(v *victim, mark string, block uint64) {
	want := "approved"
	if !v.valid {
		want = "rejected"
		r.delRejected.Add(1)
	}
	if mark != want {
		r.fail("deletion of %v (valid=%v) came back %q, want %q", v.ref, v.valid, mark, want)
		return
	}
	if v.valid {
		v.reqBlock = block
		r.acks.addPending(v)
	} else {
		// A rejected request leaves its target live and unmarked.
		r.acks.mu.Lock()
		r.acks.state[v.k] = stateAcked
		r.acks.mu.Unlock()
	}
}

// produce runs the closed loop until stop reports true, then drains.
// share is the deletion share of appended entries.
func (r *run) produce(share float64, stop func() bool) {
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := r.rng(uint64(100 + p))
			debt := 0.0
			var out []flight
			exhausted := false // the pre-signed pool is used up
			for {
				for len(out) < flightsPerProd && !exhausted && !stop() {
					var f flight
					var ok bool
					if debt >= deleteBatch {
						debt -= deleteBatch
						f, ok = r.submitDeletes(rng, deleteBatch)
					} else {
						debt += share * batchEntries
						f, ok = r.submitData(batchEntries)
						exhausted = !ok
					}
					if ok {
						out = append(out, f)
					}
				}
				if len(out) == 0 {
					return
				}
				r.land(out[0])
				out = out[1:]
			}
		}(p)
	}
	wg.Wait()
}

// submitData offers the next n pre-signed entries in one Submit call.
func (r *run) submitData(n int) (flight, bool) {
	f := flight{start: time.Now(), on: r.tr.active(), n: n}
	k0, ok := r.takeK(n)
	if !ok {
		return f, false
	}
	f.k0 = k0
	return r.submit(f, r.pool.entries(k0, n))
}

// submitDeletes offers n deletion requests in one Submit call.
func (r *run) submitDeletes(rng *rand.Rand, n int) (flight, bool) {
	f := flight{start: time.Now(), on: r.tr.active()}
	vs, entries := r.deletions(rng, n, f.start)
	if len(entries) == 0 {
		return f, false
	}
	f.dels = vs
	return r.submit(f, entries)
}

func (r *run) submit(f flight, entries []*seldel.Entry) (flight, bool) {
	r.attempted.Add(1)
	rs, err := r.submitter().Submit(r.ctx, entries...)
	if err != nil {
		r.failed.Add(1)
		r.fail("submit: %v", err)
		return f, false
	}
	f.rs = rs
	return f, true
}

// land waits for one flight's receipts and books the outcome.
func (r *run) land(f flight) {
	sealed := make([]seldel.Sealed, len(f.rs))
	for i, rc := range f.rs {
		s, err := rc.Wait(r.ctx)
		if err != nil {
			r.failed.Add(1)
			r.fail("receipt: %v", err)
			return
		}
		sealed[i] = s
	}
	end := time.Now()
	d := end.Sub(f.start)
	kind := "submit"
	if f.dels != nil {
		kind = "submit.delete"
		for i, v := range f.dels {
			r.settle(v, sealed[i].Mark.String(), sealed[i].Block)
		}
		if !f.start.Before(r.winStart) {
			r.marks.add(d)
		}
	} else {
		r.acks.ackBatch(f.k0, sealed)
		if r.inWindow(f.start) {
			r.writes.addAt(end, d)
			r.writesOnOff[b2i(f.on)].add(d)
			r.ackInWindow(f.n, end)
		}
	}
	if f.on {
		r.tr.op(opRec{ival: ival{int64(f.start.Sub(r.start)), int64(end.Sub(r.start))}, kind: kind, block: sealed[0].Block, on: true})
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// preload appends entries [0, n) as fast as the pipeline takes them,
// 256 per call, and erases set.preErased victims on the way.
func (r *run) preload(n int) error {
	if r.cl != nil {
		return r.cl.preload(n)
	}
	r.obs.setTruncated(r.sweepErased)
	rng := r.rng(1)
	const chunk = 256
	var out []flight
	toErase := r.set.preErased
	for r.err() == nil {
		for len(out) < flightsPerProd && r.clock.offered()+chunk <= n {
			var f flight
			var ok bool
			if toErase > 0 && r.clock.offered() >= n*2/5 {
				m := min(toErase, 100)
				toErase -= m
				if f, ok = r.submitDeletes(rng, m); ok {
					for _, v := range f.dels {
						v.submitAt = time.Time{} // set-up: not an erase sample
					}
				}
			} else {
				f, ok = r.submitData(chunk)
			}
			if !ok {
				return fmt.Errorf("preload: nothing to submit at entry %d", r.clock.offered())
			}
			out = append(out, f)
		}
		if len(out) == 0 {
			break
		}
		r.land(out[0])
		out = out[1:]
	}
	return r.err()
}

// window opens the timed window: from here on operations count.
func (r *run) window() (deadline time.Time) {
	r.winStart = time.Now()
	r.winEnd = r.winStart.Add(time.Duration(r.opt.seconds) * time.Second)
	return r.winEnd
}

func until(t time.Time) func() bool { return func() bool { return !time.Now().Before(t) } }

// driveErasure: appends at saturation with deletion requests for 6 % of
// the appended entries.
func (r *run) driveErasure() error {
	r.produce(deleteShare, until(time.Now().Add(warmup)))
	stopSamplers := r.startSamplers()
	r.produce(deleteShare, until(r.window()))
	r.closeWindow()
	stopSamplers()
	// Keep appending until every pending victim is erased.
	limit := time.Now().Add(tailLimit)
	r.produce(0, func() bool { return r.acks.pendingCount() == 0 || time.Now().After(limit) })
	if n := r.acks.pendingCount(); n > 0 {
		r.fail("%d deletion requests not erased %v after the window", n, tailLimit)
	}
	return r.err()
}

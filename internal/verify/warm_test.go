package verify

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/seldel/seldel/internal/block"
)

// drainWarmWorkers waits, without sleeping, until the pool's warm-up
// workers have all exited: a worker that closed the last channel still
// has to find the queue empty.
func drainWarmWorkers(t *testing.T, p *Pool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for p.WarmWorkersForTest() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d warm-up workers still running after the queue drained", p.WarmWorkersForTest())
		}
		runtime.Gosched()
	}
}

// TestWarmClosesInSubmissionOrder: eight groups of 32 signed entries
// queued on a 2-worker pool close their channels oldest first, each
// one's signatures all checked by then, and no worker outlives the queue.
func TestWarmClosesInSubmissionOrder(t *testing.T) {
	const groups, per = 8, 32
	reg, kp := testRegistry(t)
	batches := make([][]*block.Entry, groups)
	for g := range batches {
		for i := 0; i < per; i++ {
			e := block.NewData(kp.Name(), []byte(fmt.Sprintf("order-%d-%d", g, i)))
			batches[g] = append(batches[g], e.Sign(kp))
		}
	}
	p := New(Options{Workers: 2})
	done := make([]<-chan struct{}, groups)
	cases := make([]reflect.SelectCase, groups)
	for g, entries := range batches {
		done[g] = p.Warm(reg, entries)
		cases[g] = reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(done[g])}
	}
	if up := p.WarmWorkersForTest(); up > 2 {
		t.Fatalf("%d warm-up workers on a 2-worker pool", up)
	}
	for remaining := groups; remaining > 0; remaining-- {
		// Whichever group is seen closed, every group queued before it
		// must be closed already.
		g, _, _ := reflect.Select(cases)
		for earlier := range g {
			select {
			case <-done[earlier]:
			default:
				t.Fatalf("group %d closed while group %d was still warming", g, earlier)
			}
		}
		cases[g].Chan = reflect.Value{} // a nil channel is never selected
		if got, want := p.Stats().Verified, uint64((g+1)*per); got < want {
			t.Fatalf("group %d closed after %d verifications, want at least %d", g, got, want)
		}
	}
	if s := p.Stats(); s.Verified != groups*per || s.Batched != groups*per {
		t.Fatalf("%d entries: %d verified, %d batched; want one each, all batched", groups*per, s.Verified, s.Batched)
	}
	drainWarmWorkers(t, p)
}

// TestWarmChecksADuplicateOnce: a signature that appears twice, in one
// group or in two queued groups, reaches the curve once, however the
// workers interleave.
func TestWarmChecksADuplicateOnce(t *testing.T) {
	reg, kp := testRegistry(t)
	for _, workers := range []int{1, 2, 4} {
		p := New(Options{Workers: workers})
		entries := signedEntries(kp, 16)
		within := append([]*block.Entry{entries[0], entries[0]}, entries[1:8]...)
		first := append(entries[8:], entries[2])
		second := append([]*block.Entry{entries[8], entries[2]}, entries[9:12]...)
		a, b, c := p.Warm(reg, within), p.Warm(reg, first), p.Warm(reg, second)
		<-a
		<-b
		<-c
		if got := p.Stats().Verified; got != 16 {
			t.Fatalf("workers=%d: %d curve checks for 16 distinct signatures", workers, got)
		}
		if err := p.Entries(reg, append(within, second...)); err != nil {
			t.Fatal(err)
		}
		if got := p.Stats().Verified; got != 16 {
			t.Fatalf("workers=%d: the seal-time check reached the curve (%d checks)", workers, got)
		}
		drainWarmWorkers(t, p)
	}
}

// TestIdlePoolHoldsNoGoroutine: the warm-up workers start with queued
// work and are all gone once the queue drains, as the goroutine count
// confirms.
func TestIdlePoolHoldsNoGoroutine(t *testing.T) {
	reg, kp := testRegistry(t)
	before := runtime.NumGoroutine()
	p := New(Options{Workers: 4})
	var chans []<-chan struct{}
	for g := 0; g < 6; g++ {
		chans = append(chans, p.Warm(reg, signedEntries(kp, 10+g)))
	}
	for _, ch := range chans {
		<-ch
	}
	drainWarmWorkers(t, p)
	settle(t, "the exited workers to leave the scheduler", func() bool { return runtime.NumGoroutine() <= before })
	if got := p.Stats().Verified; got != 15 {
		t.Fatalf("%d curve checks for 15 distinct signatures", got)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.checks) != 0 || len(p.warming) != 0 || p.unclaimed != 0 || len(p.inflight) != 0 {
		t.Fatalf("drained queue still holds %d check calls, %d groups, %d unclaimed, %d in flight", len(p.checks), len(p.warming), p.unclaimed, len(p.inflight))
	}
}

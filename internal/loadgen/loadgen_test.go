package loadgen

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopIndependence is the defining property of the scheduler:
// a stalled server must NOT slow the request schedule down. 20 requests
// at 100/s, each stalling 150ms. A closed loop would need 20 × 150ms =
// 3s of wall time; an open loop needs ~190ms of schedule + one stall,
// and every request has fired before the first stall ends.
func TestOpenLoopIndependence(t *testing.T) {
	const stall = 150 * time.Millisecond
	var fired atomic.Int64
	var firedAtFirstReply atomic.Int64
	firedAtFirstReply.Store(-1)
	start := time.Now()
	sum := Run(context.Background(), Options{
		Rate:     100,
		Requests: 20,
		Fire: func(ctx context.Context, i int) Class {
			fired.Add(1)
			select {
			case <-time.After(stall):
			case <-ctx.Done():
			}
			firedAtFirstReply.CompareAndSwap(-1, fired.Load())
			return OK
		},
	})
	wall := time.Since(start)
	if sum.OKs != 20 || sum.Scheduled != 20 || fired.Load() != 20 {
		t.Fatalf("oks=%d scheduled=%d fired=%d", sum.OKs, sum.Scheduled, fired.Load())
	}
	// Closed-loop floor would be 20 stalls = 3s; the open loop finishes
	// in schedule length (190ms) + one stall + slack.
	if wall > 1500*time.Millisecond {
		t.Errorf("wall %v: schedule was serialized behind the stalls", wall)
	}
	// A closed loop has fired exactly one request when the first reply
	// lands; the open loop has fired ~15 (150ms of a 10ms schedule).
	if n := firedAtFirstReply.Load(); n < 5 {
		t.Errorf("%d requests fired when the first stall ended: the schedule waited on replies", n)
	}
}

func TestRunClassesAndShedFraction(t *testing.T) {
	sum := Run(context.Background(), Options{
		Rate:     2000,
		Requests: 40,
		Fire: func(ctx context.Context, i int) Class {
			switch i % 4 {
			case 0:
				return Shed
			case 1:
				return Errored
			default:
				return OK
			}
		},
	})
	if sum.OKs != 20 || sum.Sheds != 10 || sum.Errors != 10 || sum.Scheduled != 40 {
		t.Errorf("oks=%d sheds=%d errors=%d scheduled=%d", sum.OKs, sum.Sheds, sum.Errors, sum.Scheduled)
	}
	if got := float64(sum.Sheds) / float64(sum.Scheduled); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("shed fraction = %v", got)
	}
}

func TestRunMaxInflightDrops(t *testing.T) {
	// Fire wedges until released; the valve must count drops instead of
	// spawning unbounded goroutines, and must NOT slow the schedule.
	release := make(chan struct{})
	time.AfterFunc(300*time.Millisecond, func() { close(release) })
	sum := Run(context.Background(), Options{
		Rate:        5000,
		Requests:    32,
		MaxInflight: 4,
		Fire: func(ctx context.Context, i int) Class {
			<-release
			return OK
		},
	})
	if sum.Dropped == 0 {
		t.Error("no drops with a 4-deep valve against a wedged server")
	}
	if sum.OKs+sum.Dropped != 32 {
		t.Errorf("oks %d + dropped %d != 32", sum.OKs, sum.Dropped)
	}
}

func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	sum := Run(ctx, Options{
		Rate:     10,
		Requests: 1000, // 100s of schedule — must be cut short
		Fire:     func(ctx context.Context, i int) Class { return OK },
	})
	if sum.Scheduled >= 1000 {
		t.Errorf("cancel did not stop the schedule: %d scheduled", sum.Scheduled)
	}
}

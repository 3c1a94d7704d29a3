package compact

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestEventsExecuteInOrder(t *testing.T) {
	var mu sync.Mutex
	var got []uint64
	k := New(func(ev Event) {
		mu.Lock()
		got = append(got, ev.NewMarker)
		mu.Unlock()
	})
	for i := uint64(1); i <= 20; i++ {
		k.Enqueue(Event{OldMarker: i - 1, NewMarker: i, Blocks: 1, Bytes: 10})
	}
	if err := k.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 20 {
		t.Fatalf("executed %d events, want 20", len(got))
	}
	for i, m := range got {
		if m != uint64(i+1) {
			t.Fatalf("event %d executed marker %d — out of order", i, m)
		}
	}
}

func TestWaitBarriersOnPriorEvents(t *testing.T) {
	release := make(chan struct{})
	var done sync.WaitGroup
	done.Add(1)
	k := New(func(Event) {
		<-release
		done.Done()
	})
	defer k.Close()
	k.Enqueue(Event{NewMarker: 3})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := k.Wait(ctx); err == nil {
		t.Fatal("Wait returned before the pending event executed")
	}
	close(release)
	if err := k.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	done.Wait()
	if s := k.Stats(); s.Truncations != 1 || s.LastMarker != 3 {
		t.Errorf("stats after barrier: %+v", s)
	}
}

func TestCloseDrainsAndRunsInlineAfter(t *testing.T) {
	var mu sync.Mutex
	n := 0
	k := New(func(Event) {
		mu.Lock()
		n++
		mu.Unlock()
	})
	k.Enqueue(Event{NewMarker: 1, Blocks: 2, Bytes: 7})
	k.Close()
	k.Close() // idempotent
	mu.Lock()
	if n != 1 {
		t.Fatalf("Close did not drain: %d events ran", n)
	}
	mu.Unlock()
	// Late events run inline on the caller.
	k.Enqueue(Event{NewMarker: 2, Blocks: 1, Bytes: 3})
	mu.Lock()
	if n != 2 {
		t.Fatalf("post-Close Enqueue did not run inline: %d", n)
	}
	mu.Unlock()
	if err := k.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := k.Stats()
	if s.Truncations != 2 || s.BlocksCompacted != 3 || s.BytesReclaimed != 10 {
		t.Errorf("stats = %+v", s)
	}
}

func TestTryEnqueueRefusedAfterClose(t *testing.T) {
	k := New(func(Event) {})
	k.Close()
	if k.TryEnqueue(Event{NewMarker: 1}) {
		t.Fatal("TryEnqueue accepted after Close")
	}
	// Enqueue still executes inline so cleanup is never lost.
	k.Enqueue(Event{NewMarker: 1, Blocks: 1})
	if s := k.Stats(); s.Truncations != 1 || s.BlocksCompacted != 1 {
		t.Errorf("stats = %+v", s)
	}
}

// TestOrderUnderConcurrentStagers pins the ordering contract the chain
// relies on: stagers that serialize their TryEnqueue calls (the chain
// stages under its lock) observe strictly FIFO execution even while
// the runner is busy.
func TestOrderUnderConcurrentStagers(t *testing.T) {
	var mu sync.Mutex
	var got []uint64
	slow := make(chan struct{})
	k := New(func(ev Event) {
		<-slow
		mu.Lock()
		got = append(got, ev.NewMarker)
		mu.Unlock()
	})
	defer k.Close()
	var stage sync.Mutex // stands in for Chain.mu
	var wg sync.WaitGroup
	next := uint64(0)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				stage.Lock()
				next++
				if !k.TryEnqueue(Event{NewMarker: next}) {
					t.Error("TryEnqueue refused while open")
				}
				stage.Unlock()
			}
		}()
	}
	close(slow)
	wg.Wait()
	if err := k.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 400 {
		t.Fatalf("executed %d events, want 400", len(got))
	}
	for i, m := range got {
		if m != uint64(i+1) {
			t.Fatalf("event %d executed marker %d — out of order", i, m)
		}
	}
}

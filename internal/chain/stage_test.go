package chain

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/seldel/seldel/internal/block"
)

// stageLog is a stage whose syncs and cuts note themselves, in the
// order they ran, and whose receipts note their resolution.
type stageLog struct {
	mu  sync.Mutex
	log []string
}

func (l *stageLog) note(s string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.log = append(l.log, s)
}

func (l *stageLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.log, " ")
}

func (l *stageLog) stage() *stage {
	return newStage(func() error { l.note("sync"); return nil }, 0,
		func(ev Event) { l.note(fmt.Sprintf("cut%d", ev.NewMarker)) })
}

func TestStageCutsRunInOrder(t *testing.T) {
	var l stageLog
	s := l.stage()
	var want []string
	for i := uint64(1); i <= 20; i++ {
		s.push(stageItem{cut: &Event{OldMarker: i - 1, NewMarker: i, Blocks: 1, Bytes: 10}})
		want = append(want, fmt.Sprintf("cut%d", i))
	}
	if err := s.wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := l.String(); got != strings.Join(want, " ") {
		t.Fatalf("ran %s, want %s", got, strings.Join(want, " "))
	}
	if st := s.snapshot(); st.Pending != 0 || st.Truncations != 20 || st.BlocksCompacted != 20 || st.BytesReclaimed != 200 || st.LastMarker != 20 {
		t.Errorf("stats = %+v", st)
	}
}

// TestStageRunsSyncsAndCutsInQueueOrder: a sync and a cut run in the
// order they were queued, whichever comes first, and one sync covers
// only the batches queued ahead of the next cut. A first cut, held on
// its listeners, keeps the stage busy until each case is queued.
func TestStageRunsSyncsAndCutsInQueueOrder(t *testing.T) {
	for queued, want := range map[string]string{
		"SC":  "cut1 sync S cut2",
		"CS":  "cut1 cut2 sync S",
		"SSC": "cut1 sync S S cut2",
		"SCS": "cut1 sync S cut2 sync S",
	} {
		var l stageLog
		s := l.stage()
		hold := make(chan struct{})
		s.push(stageItem{cut: &Event{NewMarker: 1}, listened: hold})
		for _, kind := range queued {
			if kind == 'C' {
				s.push(stageItem{cut: &Event{NewMarker: 2}})
				continue
			}
			s.push(stageItem{resolve: func(err error) {
				if err != nil {
					t.Error(err)
				}
				l.note("S")
			}})
		}
		close(hold)
		s.close()
		if got := l.String(); got != want {
			t.Errorf("queued %s: ran %q, want %q", queued, got, want)
		}
	}
}

// TestStageCutWaitsForItsListeners: a cut runs only once the append
// that staged it has run its listeners, and a barrier queued behind it
// waits as long.
func TestStageCutWaitsForItsListeners(t *testing.T) {
	var l stageLog
	s := l.stage()
	listened := make(chan struct{})
	s.push(stageItem{cut: &Event{NewMarker: 3}, listened: listened})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.wait(ctx); err == nil {
		t.Fatal("wait returned before the held cut ran")
	}
	if got := l.String(); got != "" {
		t.Fatalf("ran %q before the cut's listeners", got)
	}
	if st := s.snapshot(); st.Pending != 1 {
		t.Errorf("pending = %d, want 1", st.Pending)
	}
	close(listened)
	if err := s.wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := l.String(); got != "cut3" {
		t.Fatalf("ran %q, want cut3", got)
	}
}

// TestStageResolvesNoReceiptBeforeItsSync: under concurrent stagers a
// batch's receipts resolve only after a sync that started after the
// batch was queued has returned: one that was already running covers
// blocks stored before it, not this one.
func TestStageResolvesNoReceiptBeforeItsSync(t *testing.T) {
	var started, finished atomic.Int64
	s := newStage(func() error {
		n := started.Add(1)
		time.Sleep(100 * time.Microsecond)
		finished.Store(n)
		return nil
	}, 0, nil)
	var early atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				before := started.Load()
				done := make(chan struct{})
				s.push(stageItem{resolve: func(error) {
					if finished.Load() <= before {
						early.Add(1)
					}
					close(done)
				}})
				<-done
			}
		}()
	}
	wg.Wait()
	s.close()
	if n := early.Load(); n > 0 {
		t.Errorf("%d of 200 batches resolved before a sync that covers them", n)
	}
	if n := started.Load(); n == 0 || n > 200 {
		t.Errorf("%d syncs for 200 batches", n)
	}
}

// TestGroupCommitReceiptFollowsItsSync is the same property through the
// chain's pipeline: when a DurabilityGroup receipt resolves, a sync
// that started after its block reached the store has returned.
func TestGroupCommitReceiptFollowsItsSync(t *testing.T) {
	env := newEnv(t, "alpha")
	cfg := defaultConfig(env)
	cfg.Durability = Durability{Mode: DurabilityGroup, GroupWindow: time.Millisecond}
	var stored, durable atomic.Uint64
	s := &hookStore{Store: openSegment(t)}
	s.put = func(b *block.Block) { stored.Store(b.Header.Number) }
	s.sync = func() error {
		durable.Store(stored.Load())
		return s.Store.Sync()
	}
	c, err := Open(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 12; i++ {
		sealed, err := c.SubmitWait(context.Background(), env.data("alpha", fmt.Sprintf("g%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if d := durable.Load(); d < sealed[0].Block {
			t.Fatalf("receipt for block %d resolved with blocks up to %d synced", sealed[0].Block, d)
		}
	}
	if c.Marker() == 0 {
		t.Error("the chain never cut, so no sync shared the stage with a cut")
	}
}

// TestStageOrderUnderConcurrentStagers pins the ordering contract the
// chain relies on: stagers that serialize their pushes (the chain
// stages under its lock) see strictly FIFO execution even while the
// stage is busy.
func TestStageOrderUnderConcurrentStagers(t *testing.T) {
	var mu sync.Mutex
	var got []uint64
	slow := make(chan struct{})
	s := newStage(nil, 0, func(ev Event) {
		<-slow
		mu.Lock()
		got = append(got, ev.NewMarker)
		mu.Unlock()
	})
	var lock sync.Mutex // stands in for Chain.mu
	var wg sync.WaitGroup
	next := uint64(0)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				lock.Lock()
				next++
				s.push(stageItem{cut: &Event{NewMarker: next}})
				lock.Unlock()
			}
		}()
	}
	close(slow)
	wg.Wait()
	if err := s.wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 400 {
		t.Fatalf("ran %d cuts, want 400", len(got))
	}
	for i, m := range got {
		if m != uint64(i+1) {
			t.Fatalf("cut %d ran marker %d — out of order", i, m)
		}
	}
}

// TestStageDrainsOnCloseAndRunsLaterCuts: close runs what is queued,
// twice is harmless, and a cut staged after it (an AppendBlock on a
// closed chain) still runs, in order, on a goroutine of its own.
func TestStageDrainsOnCloseAndRunsLaterCuts(t *testing.T) {
	var l stageLog
	s := l.stage()
	s.push(stageItem{cut: &Event{NewMarker: 1, Blocks: 2, Bytes: 7}})
	s.close()
	s.close()
	if got := l.String(); got != "cut1" {
		t.Fatalf("close ran %q, want cut1", got)
	}
	s.push(stageItem{cut: &Event{NewMarker: 2, Blocks: 1, Bytes: 3}})
	if err := s.wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := l.String(); got != "cut1 cut2" {
		t.Fatalf("ran %q, want cut1 cut2", got)
	}
	if st := s.snapshot(); st.Truncations != 2 || st.BlocksCompacted != 3 || st.BytesReclaimed != 10 || st.Pending != 0 {
		t.Errorf("stats = %+v", st)
	}
}

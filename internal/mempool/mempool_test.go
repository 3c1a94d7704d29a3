package mempool

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/seldel/seldel/internal/block"
)

// fakeLedger seals batches by recording them; entries whose payload is
// "bad" fail both batch commit and stand-alone validation, a sealErr,
// when set, fails every commit without blaming any entry, and
// failCommits fails that many commits with a transient head-race error.
type fakeLedger struct {
	mu          sync.Mutex
	batches     [][]*block.Entry
	next        uint64
	sealErr     error
	failCommits int
	// partialErr is returned alongside the appended block, modelling a
	// Commit whose normal block sealed but whose summary step failed.
	partialErr error
}

var errHeadMoved = errors.New("fake: head moved")

var errBadEntry = errors.New("fake: bad entry")

func (f *fakeLedger) validate(e *block.Entry) error {
	if string(e.Payload) == "bad" {
		return errBadEntry
	}
	return nil
}

func (f *fakeLedger) Seal(entries []*block.Entry) ([]*block.Block, []MarkOutcome, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.sealErr != nil {
		return nil, nil, f.sealErr
	}
	if f.failCommits > 0 {
		f.failCommits--
		return nil, nil, errHeadMoved
	}
	for _, e := range entries {
		if err := f.validate(e); err != nil {
			return nil, nil, err
		}
	}
	f.next++
	f.batches = append(f.batches, append([]*block.Entry(nil), entries...))
	b := block.NewNormal(f.next, f.next, block.GenesisPrevHash, entries)
	return []*block.Block{b}, nil, f.partialErr
}

func (f *fakeLedger) ValidateEntries(entries []*block.Entry) error {
	for _, e := range entries {
		if err := f.validate(e); err != nil {
			return err
		}
	}
	return nil
}

func entry(payload string) *block.Entry {
	return block.NewData("owner", []byte(payload))
}

func TestBatcherResolvesReceipts(t *testing.T) {
	led := &fakeLedger{}
	b := NewBatcher(led, Options{})
	defer b.Close()
	receipts, err := b.Submit(context.Background(), entry("a"), entry("b"))
	if err != nil {
		t.Fatal(err)
	}
	if len(receipts) != 2 {
		t.Fatalf("got %d receipts", len(receipts))
	}
	for i, r := range receipts {
		sealed, err := r.Wait(context.Background())
		if err != nil {
			t.Fatalf("receipt %d: %v", i, err)
		}
		if sealed.Ref.Entry != uint32(i) {
			t.Errorf("receipt %d: ref entry %d", i, sealed.Ref.Entry)
		}
		if sealed.Block != sealed.Ref.Block {
			t.Errorf("receipt %d: block %d != ref block %d", i, sealed.Block, sealed.Ref.Block)
		}
	}
	// One Submit call seals as one block.
	led.mu.Lock()
	defer led.mu.Unlock()
	if len(led.batches) != 1 || len(led.batches[0]) != 2 {
		t.Errorf("batches = %v", led.batches)
	}
}

func TestBatcherGroupsStayTogether(t *testing.T) {
	led := &fakeLedger{}
	b := NewBatcher(led, Options{})
	defer b.Close()
	// Three groups overshoot the flush threshold, so a batch boundary
	// falls where a group could have been split.
	per := maxBatch/3 + 1
	var wg sync.WaitGroup
	var allReceipts [][]Receipt
	var mu sync.Mutex
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			es := make([]*block.Entry, per)
			for i := range es {
				es[i] = entry(fmt.Sprintf("g%d-%d", g, i))
			}
			rs, err := b.Submit(context.Background(), es...)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			allReceipts = append(allReceipts, rs)
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	for _, rs := range allReceipts {
		first, err := rs[0].Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs[1:] {
			s, err := r.Wait(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if s.Block != first.Block {
				t.Errorf("group split across blocks %d and %d", first.Block, s.Block)
			}
		}
	}
}

func TestBatcherRejectsBadEntryKeepsRest(t *testing.T) {
	led := &fakeLedger{}
	b := NewBatcher(led, Options{})
	defer b.Close()
	receipts, err := b.Submit(context.Background(), entry("ok1"), entry("bad"), entry("ok2"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := receipts[0].Wait(context.Background()); err != nil {
		t.Errorf("good entry failed: %v", err)
	}
	if _, err := receipts[1].Wait(context.Background()); !errors.Is(err, errBadEntry) {
		t.Errorf("bad entry error = %v", err)
	}
	if _, err := receipts[2].Wait(context.Background()); err != nil {
		t.Errorf("good entry failed: %v", err)
	}
	st := b.Stats()
	if st.Rejected != 1 || st.Entries != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBatcherBatchLevelFailureFailsAll(t *testing.T) {
	sealErr := errors.New("fake: seal broken")
	led := &fakeLedger{sealErr: sealErr}
	b := NewBatcher(led, Options{})
	defer b.Close()
	receipts, err := b.Submit(context.Background(), entry("x"), entry("y"))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range receipts {
		if _, err := r.Wait(context.Background()); !errors.Is(err, sealErr) {
			t.Errorf("receipt %d: err = %v", i, err)
		}
	}
}

func TestBatcherCloseFlushesAndRejectsNewSubmits(t *testing.T) {
	led := &fakeLedger{}
	b := NewBatcher(led, Options{})
	receipts, err := b.Submit(context.Background(), entry("last"))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-receipts[0].Done():
	default:
		t.Error("in-flight receipt did not resolve on Close")
	}
	if _, err := b.Submit(context.Background(), entry("late")); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close = %v", err)
	}
	if err := b.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
}

func TestBatcherSubmitContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	led := &fakeLedger{}
	b := NewBatcher(led, Options{})
	defer b.Close()
	// Fill the intake so the send path must consult ctx... a cancelled
	// ctx either enqueues nothing or wins the race; both are valid, but
	// an error must be ctx.Err.
	if _, err := b.Submit(ctx, entry("z")); err != nil && !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v", err)
	}
}

func TestBatcherEmptySubmit(t *testing.T) {
	b := NewBatcher(&fakeLedger{}, Options{})
	defer b.Close()
	receipts, err := b.Submit(context.Background())
	if err != nil || receipts != nil {
		t.Errorf("empty submit = %v, %v", receipts, err)
	}
}

func TestZeroReceipt(t *testing.T) {
	var r Receipt
	if _, err := r.Wait(context.Background()); err == nil {
		t.Error("zero receipt Wait() = nil error")
	}
	select {
	case <-r.Done():
	default:
		t.Error("zero receipt's Done is open")
	}
}

func TestBatcherRetriesTransientBatchFailure(t *testing.T) {
	// A head race with a concurrent direct committer fails Commit twice
	// while every entry still validates; the flusher must retry and the
	// receipts must resolve successfully.
	led := &fakeLedger{failCommits: 2}
	b := NewBatcher(led, Options{})
	defer b.Close()
	receipts, err := b.Submit(context.Background(), entry("racy"))
	if err != nil {
		t.Fatal(err)
	}
	deadline, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := receipts[0].Wait(deadline); err != nil {
		t.Fatalf("receipt failed despite transient error: %v", err)
	}
}

// TestBatcherSealsOnlyAfterWarm: the flusher joins a group's warm-up
// before sealing it, so a warm channel held open holds the seal back.
func TestBatcherSealsOnlyAfterWarm(t *testing.T) {
	led := &fakeLedger{}
	warmed := make(chan struct{})
	b := NewBatcher(led, Options{Warm: func([]*block.Entry) <-chan struct{} { return warmed }})
	defer b.Close()
	receipts, err := b.Submit(context.Background(), entry("a"), entry("b"))
	if err != nil {
		t.Fatal(err)
	}
	// Long enough for an idle flusher to have sealed, had it not waited.
	time.Sleep(50 * time.Millisecond)
	led.mu.Lock()
	sealed := len(led.batches)
	led.mu.Unlock()
	resolved := false
	select {
	case <-receipts[0].Done():
		resolved = true
	default:
	}
	if sealed != 0 || resolved {
		t.Fatalf("%d batches sealed while the warm-up was still running", sealed)
	}
	close(warmed)
	deadline, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i, r := range receipts {
		if _, err := r.Wait(deadline); err != nil {
			t.Fatalf("receipt %d after the warm-up ended: %v", i, err)
		}
	}
}

func TestBatcherPartialCommitDoesNotDoubleSeal(t *testing.T) {
	// Commit appended the normal block but reports a summary-step error:
	// the entries are on-chain, so the receipts must resolve to that
	// block and the batch must NOT be committed a second time.
	led := &fakeLedger{partialErr: errors.New("fake: summary race lost")}
	b := NewBatcher(led, Options{})
	defer b.Close()
	receipts, err := b.Submit(context.Background(), entry("once"))
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := receipts[0].Wait(context.Background())
	if err != nil {
		t.Fatalf("receipt failed on partial commit: %v", err)
	}
	led.mu.Lock()
	defer led.mu.Unlock()
	if len(led.batches) != 1 {
		t.Fatalf("batch sealed %d times, want 1", len(led.batches))
	}
	if sealed.Block != 1 {
		t.Errorf("sealed block = %d, want the appended block 1", sealed.Block)
	}
}

// gatedWarm is a Warm hook whose warm-ups end when a test says so: a
// group whose first payload has a gate warms until the gate is closed;
// any other group is warm at once.
type gatedWarm map[string]chan struct{}

func (g gatedWarm) hook(entries []*block.Entry) <-chan struct{} {
	if gate, ok := g[string(entries[0].Payload)]; ok {
		return gate
	}
	return nil
}

// gatedBatcher starts a batcher over a fake ledger whose groups warm
// until the gate named after their first payload is closed.
func gatedBatcher(t *testing.T, names ...string) (*Batcher, *fakeLedger, gatedWarm) {
	t.Helper()
	gates := gatedWarm{}
	for _, n := range names {
		gates[n] = make(chan struct{})
	}
	led := &fakeLedger{}
	b := NewBatcher(led, Options{Warm: gates.hook})
	t.Cleanup(func() {
		// A test that failed early leaves a gate open, and Close would
		// wait for that warm-up forever.
		for _, gate := range gates {
			select {
			case <-gate:
			default:
				close(gate)
			}
		}
		b.Close()
	})
	return b, led, gates
}

// submitOne submits a group of the given payloads and returns its
// receipts.
func submitOne(t *testing.T, b *Batcher, payloads ...string) []Receipt {
	t.Helper()
	es := make([]*block.Entry, len(payloads))
	for i, p := range payloads {
		es[i] = entry(p)
	}
	rs, err := b.Submit(context.Background(), es...)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// sealedWithin waits for r, failing the test after five seconds.
func sealedWithin(t *testing.T, r Receipt) Sealed {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s, err := r.Wait(ctx)
	if err != nil {
		t.Fatalf("receipt: %v", err)
	}
	return s
}

// heldBack queues group a and then group b, both warming, and ends a's
// warm-up: the flusher seals a and holds b back for the next block.
// It returns once a's receipt resolved.
func heldBack(t *testing.T) (*Batcher, gatedWarm, Sealed, []Receipt) {
	t.Helper()
	b, _, gates := gatedBatcher(t, "a", "b")
	ra := submitOne(t, b, "a")
	rb := submitOne(t, b, "b")
	close(gates["a"])
	return b, gates, sealedWithin(t, ra[0]), rb
}

// TestBatcherHeldWarmUpDoesNotDelayEarlierGroups: a group whose
// warm-up still runs stays out of the block of the warm groups queued
// ahead of it, and seals in a later one once it is warm.
func TestBatcherHeldWarmUpDoesNotDelayEarlierGroups(t *testing.T) {
	_, gates, sa, rb := heldBack(t)
	select {
	case <-rb[0].Done():
		t.Fatal("a group sealed while its warm-up was running")
	default:
	}
	close(gates["b"])
	if sb := sealedWithin(t, rb[0]); sb.Block <= sa.Block {
		t.Errorf("held group sealed in block %d, not after block %d", sb.Block, sa.Block)
	}
}

// TestBatcherKeepsFIFOOrder: groups seal in the order they were
// submitted, however their warm-ups end.
func TestBatcherKeepsFIFOOrder(t *testing.T) {
	const n = 200
	var order []string
	for i := 0; i < n; i++ {
		order = append(order, fmt.Sprintf("g%03d", i))
	}
	b, led, gates := gatedBatcher(t, order...)
	perm := rand.Perm(n)
	go func() {
		for _, i := range perm {
			close(gates[order[i]])
			runtime.Gosched()
		}
	}()
	var receipts []Receipt
	for i, p := range order {
		// Every fifth group holds three entries.
		ps := []string{p}
		if i%5 == 0 {
			ps = append(ps, p+"-1", p+"-2")
		}
		receipts = append(receipts, submitOne(t, b, ps...)...)
	}
	last := uint64(0)
	for _, r := range receipts {
		s := sealedWithin(t, r)
		if s.Block < last {
			t.Fatalf("block %d sealed after block %d", s.Block, last)
		}
		last = s.Block
	}
	led.mu.Lock()
	defer led.mu.Unlock()
	var sealed []string
	for _, batch := range led.batches {
		for _, e := range batch {
			if p := string(e.Payload); len(p) == 4 {
				sealed = append(sealed, p)
			}
		}
	}
	if fmt.Sprint(sealed) != fmt.Sprint(order) {
		t.Errorf("groups sealed out of submission order: %v", sealed)
	}
}

// TestBatcherHeldGroupStaysTogether: the entries of one Submit call
// seal in one block when their group was held back.
func TestBatcherHeldGroupStaysTogether(t *testing.T) {
	b, _, gates := gatedBatcher(t, "x", "y0")
	rx := submitOne(t, b, "x")
	ry := submitOne(t, b, "y0", "y1", "y2", "y3")
	close(gates["x"])
	sx := sealedWithin(t, rx[0])
	close(gates["y0"])
	first := sealedWithin(t, ry[0])
	if first.Block <= sx.Block {
		t.Errorf("held group sealed in block %d, not after block %d", first.Block, sx.Block)
	}
	for i, r := range ry[1:] {
		if s := sealedWithin(t, r); s.Block != first.Block {
			t.Errorf("entry %d sealed in block %d, entry 0 in block %d", i+1, s.Block, first.Block)
		}
	}
}

// TestBatcherCloseDrainsHeldGroup: Close seals the group the flusher
// holds back, once its warm-up ends, before it returns.
func TestBatcherCloseDrainsHeldGroup(t *testing.T) {
	b, gates, _, rb := heldBack(t)
	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	close(gates["b"])
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
	select {
	case <-rb[0].Done():
	default:
		t.Fatal("Close returned before the held group sealed")
	}
	if _, err := rb[0].Wait(context.Background()); err != nil {
		t.Errorf("held group: %v", err)
	}
}

// TestBatcherQueueDepthCountsHeldGroup: the group the flusher holds
// back is waiting like any queued group, so admission control sees it.
func TestBatcherQueueDepthCountsHeldGroup(t *testing.T) {
	b, gates, _, rb := heldBack(t)
	if st := b.Stats(); st.QueueDepth != 1 || st.QueueFraction() != 1/float64(st.QueueCap) {
		t.Errorf("one group held back: QueueDepth %d, QueueFraction %v", st.QueueDepth, st.QueueFraction())
	}
	close(gates["b"])
	sealedWithin(t, rb[0])
	if st := b.Stats(); st.QueueDepth != 0 {
		t.Errorf("nothing waiting: QueueDepth %d", st.QueueDepth)
	}
}

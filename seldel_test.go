package seldel

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/seldel/seldel/internal/consensus"
)

// TestPublicAPIQuickstart exercises the doc-comment quickstart end to end
// through the façade only: options construction, Submit, receipts.
func TestPublicAPIQuickstart(t *testing.T) {
	reg := NewRegistry()
	alice := DeterministicKey("alice", "api-test")
	if err := reg.RegisterKey(alice, RoleUser); err != nil {
		t.Fatal(err)
	}
	c, err := New(reg,
		WithSequenceLength(3),
		WithMaxSequences(2),
		WithClock(NewLogicalClock(0)),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	sealed, err := c.SubmitWait(ctx, NewData("alice", []byte("hello")).Sign(alice))
	if err != nil {
		t.Fatal(err)
	}
	ref := sealed[0].Ref
	if _, err := c.SubmitWait(ctx, NewDeletion("alice", ref).Sign(alice)); err != nil {
		t.Fatal(err)
	}
	for c.IsMarked(ref) {
		if _, err := c.AppendEmpty(); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := c.Lookup(ref); ok {
		t.Error("entry survived deletion")
	}
	if c.Stats().ForgottenEntries != 1 {
		t.Error("forgotten counter wrong")
	}
}

// TestConcurrentSubmitPipeline is the acceptance test for the submission
// pipeline at the public API: 16 producers submitting data and deletion
// entries concurrently; every receipt must resolve and the chain must
// stay verifiable. Run with -race.
func TestConcurrentSubmitPipeline(t *testing.T) {
	reg := NewRegistry()
	keys := make([]*KeyPair, 16)
	for i := range keys {
		keys[i] = DeterministicKey(fmt.Sprintf("user-%d", i), "api-test")
		if err := reg.RegisterKey(keys[i], RoleUser); err != nil {
			t.Fatal(err)
		}
	}
	c, err := New(reg, WithSequenceLength(4), WithClock(NewLogicalClock(0)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	const producers = 16
	const perProducer = 20
	var wg sync.WaitGroup
	errs := make(chan error, producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			me := keys[p]
			var mine []Receipt
			for i := 0; i < perProducer; i++ {
				payload := []byte(fmt.Sprintf("p%d-%d", p, i))
				rs, err := c.Submit(ctx, NewData(me.Name(), payload).Sign(me))
				if err != nil {
					errs <- err
					return
				}
				mine = append(mine, rs...)
			}
			// Each producer deletes its own first entry, concurrently
			// with everyone else's writes.
			first, err := mine[0].Wait(ctx)
			if err != nil {
				errs <- err
				return
			}
			rs, err := c.Submit(ctx, NewDeletion(me.Name(), first.Ref).Sign(me))
			if err != nil {
				errs <- err
				return
			}
			mine = append(mine, rs...)
			for _, r := range mine {
				if _, err := r.Wait(ctx); err != nil {
					errs <- err
					return
				}
			}
			if !c.IsMarked(first.Ref) {
				errs <- fmt.Errorf("producer %d: own deletion did not mark", p)
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := c.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity: %v", err)
	}
	ps := c.PipelineStats()
	want := uint64(producers * (perProducer + 1))
	if ps.Entries != want {
		t.Errorf("pipeline sealed %d entries, want %d", ps.Entries, want)
	}
	if ps.Batches >= ps.Entries {
		t.Errorf("no coalescing: %d batches for %d entries", ps.Batches, ps.Entries)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	reg := NewRegistry()
	alice := DeterministicKey("alice", "api-test")
	if err := reg.RegisterKey(alice, RoleUser); err != nil {
		t.Fatal(err)
	}
	c, err := New(reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = c.Submit(context.Background(), NewData("alice", []byte("x")).Sign(alice))
	if !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
}

func TestOptionValidation(t *testing.T) {
	reg := NewRegistry()
	if _, err := New(nil); !errors.Is(err, ErrConfig) {
		t.Errorf("nil registry: %v", err)
	}
	if _, err := New(reg, WithSequenceLength(1)); !errors.Is(err, ErrConfig) {
		t.Errorf("sequence length 1: %v", err)
	}
	if _, err := New(reg, WithEngine(nil)); !errors.Is(err, ErrConfig) {
		t.Errorf("nil engine: %v", err)
	}
	if _, err := New(reg, WithStore(nil)); !errors.Is(err, ErrConfig) {
		t.Errorf("nil store: %v", err)
	}
}

func TestPublicAPIStoreRoundTrip(t *testing.T) {
	reg := NewRegistry()
	alice := DeterministicKey("alice", "api-test")
	if err := reg.RegisterKey(alice, RoleUser); err != nil {
		t.Fatal(err)
	}
	st, err := NewSegmentStore(t.TempDir(), SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	opts := []Option{
		WithSequenceLength(3), WithMaxSequences(1), WithShrink(ShrinkMinimal),
		WithClock(NewLogicalClock(0)), WithStore(st),
	}
	c, err := New(reg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if _, err := c.SubmitWait(ctx, NewData("alice", []byte{byte(i)}).Sign(alice)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopening through the same options restores from the store.
	opts[3] = WithClock(NewLogicalClock(0))
	restored, err := New(reg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if restored.HeadHash() != c.HeadHash() {
		t.Error("restored head differs")
	}
}

func TestPublicAPIGenerateKey(t *testing.T) {
	kp, err := GenerateKey("random")
	if err != nil {
		t.Fatal(err)
	}
	if kp.Name() != "random" {
		t.Errorf("Name = %q", kp.Name())
	}
}

func TestPublicAPIEngines(t *testing.T) {
	reg := NewRegistry()
	alice := DeterministicKey("alice", "api-test")
	if err := reg.RegisterKey(alice, RoleUser); err != nil {
		t.Fatal(err)
	}
	c, err := New(reg,
		WithSequenceLength(3),
		WithClock(NewLogicalClock(0)),
		WithEngine(consensus.NewPoW(6)),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sealed, err := c.SubmitWait(context.Background(), NewData("alice", []byte("mined")).Sign(alice))
	if err != nil {
		t.Fatal(err)
	}
	b, ok := c.Block(sealed[0].Block)
	if !ok {
		t.Fatal("sealed block missing")
	}
	if b.Hash() != sealed[0].BlockHash {
		t.Error("sealed hash mismatch")
	}
	if _, err := NewQuorum([]string{"a", "b", "c"}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamingReads(t *testing.T) {
	reg := NewRegistry()
	alice := DeterministicKey("alice", "api-test")
	if err := reg.RegisterKey(alice, RoleUser); err != nil {
		t.Fatal(err)
	}
	c, err := New(reg, WithClock(NewLogicalClock(0)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := c.SubmitWait(ctx, NewData("alice", []byte{byte(i)}).Sign(alice)); err != nil {
			t.Fatal(err)
		}
	}
	blocks := 0
	for range c.BlocksSeq() {
		blocks++
	}
	if blocks != c.Len() {
		t.Errorf("BlocksSeq yielded %d of %d blocks", blocks, c.Len())
	}
	entries := 0
	for ref, e := range c.EntriesSeq() {
		if got, _, ok := c.Lookup(ref); !ok || got.Hash() != e.Hash() {
			t.Errorf("yielded ref %s does not resolve to its entry", ref)
		}
		entries++
	}
	if entries != 5 {
		t.Errorf("EntriesSeq yielded %d entries, want 5", entries)
	}
}

func TestPublicAPIAuditAndSchema(t *testing.T) {
	reg := NewRegistry()
	alice := DeterministicKey("ALPHA", "api-test")
	if err := reg.RegisterKey(alice, RoleUser); err != nil {
		t.Fatal(err)
	}
	c, err := New(reg, WithSequenceLength(3), WithClock(NewLogicalClock(0)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	logger := NewAuditLogger(c)
	ev := LoginEvent{User: "ALPHA", Terminal: "tty1", Success: true, At: 1}
	ref, err := logger.Log(alice, ev)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := logger.Query(AuditQuery{})
	if err != nil || len(hits) != 1 || hits[0].Ref != ref || hits[0].Event != ev {
		t.Errorf("query = %+v, %v; want %+v at %s", hits, err, ev, ref)
	}
	var out strings.Builder
	if err := c.Render(&out, AuditRenderOptions()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "login ALPHA tty1 ok") {
		t.Errorf("audit rendering missing decoded login:\n%s", out.String())
	}
}

// TestGenesisPrevHashConstant: a new chain's block 0 links to the
// sentinel that renders as "DEADB", as in the paper's Fig. 6.
func TestGenesisPrevHashConstant(t *testing.T) {
	c, err := New(NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if g, ok := c.Block(0); !ok || g.Header.PrevHash.Short() != "DEADB" {
		t.Errorf("block 0 (present: %v) does not link to DEADB", ok)
	}
}

// TestPaperOptionsReachTheChain shows through the chain's behaviour that
// each of the façade's §IV-D options takes effect: every case's paper
// property holds on a chain built with the option, and fails on the
// same chain built without it.
func TestPaperOptionsReachTheChain(t *testing.T) {
	reg := NewRegistry()
	keys := make(map[string]*KeyPair)
	for name, role := range map[string]Role{"ALPHA": RoleUser, "BRAVO": RoleUser, "admin": RoleAdmin} {
		keys[name] = DeterministicKey(name, "paper-options")
		if err := reg.RegisterKey(keys[name], role); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	submit := func(t *testing.T, c *Chain, e *Entry) Sealed {
		t.Helper()
		sealed, err := c.SubmitWait(ctx, e)
		if err != nil {
			t.Fatal(err)
		}
		return sealed[0]
	}
	// afterEachCut seals n data blocks and reports whether holds is true
	// of the live chain right after every marker shift, at least one
	// of which must happen.
	afterEachCut := func(t *testing.T, c *Chain, n int, holds func() bool) bool {
		t.Helper()
		cuts, ok := 0, true
		for i := 0; i < n; i++ {
			before := c.Marker()
			submit(t, c, NewData("ALPHA", fmt.Appendf(nil, "e%d", i)).Sign(keys["ALPHA"]))
			if c.Marker() != before {
				cuts++
				ok = ok && holds()
			}
		}
		if cuts == 0 {
			t.Fatal("no cut happened: the floor was never tested")
		}
		return ok
	}
	bounded := []Option{WithMaxBlocks(3), WithShrink(ShrinkMinimal)}
	cases := []struct {
		name string
		base []Option
		opt  Option
		// holds reports whether the option's paper property holds on c.
		holds func(t *testing.T, c *Chain) bool
	}{
		{"MinBlocks §IV-D.3", bounded, WithMinBlocks(9), func(t *testing.T, c *Chain) bool {
			return afterEachCut(t, c, 16, func() bool { return c.Len() >= 9 })
		}},
		{"MinTimeSpan §IV-D.3", bounded, WithMinTimeSpan(8), func(t *testing.T, c *Chain) bool {
			return afterEachCut(t, c, 24, func() bool {
				live := c.Blocks()
				return live[len(live)-1].Header.Time-live[0].Header.Time >= 8
			})
		}},
		{"DeletionPolicy §IV-D.1", nil, WithDeletionPolicy(PolicyOwnerOnly), func(t *testing.T, c *Chain) bool {
			// An admin's request for ALPHA's entry is what the
			// role-based default allows and owner-only refuses.
			victim := submit(t, c, NewData("ALPHA", []byte("private")).Sign(keys["ALPHA"])).Ref
			submit(t, c, NewDeletion("admin", victim).Sign(keys["admin"]))
			return !c.IsMarked(victim)
		}},
		{"AutoCohesion §IV-D.2", nil, WithAutoCohesion(NewAutoCohesionPolicy(map[string]int{"ALPHA": 2, "BRAVO": 1})), func(t *testing.T, c *Chain) bool {
			// ALPHA's clearance covers BRAVO's dependent, so the
			// request needs no co-signature from BRAVO.
			base := submit(t, c, NewData("ALPHA", []byte("base")).Sign(keys["ALPHA"])).Ref
			submit(t, c, NewData("BRAVO", []byte("downstream")).WithDependsOn(base).Sign(keys["BRAVO"]))
			submit(t, c, NewDeletion("ALPHA", base).Sign(keys["ALPHA"]))
			return c.IsMarked(base)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, with := range []bool{true, false} {
				opts := append([]Option{WithSequenceLength(3), WithClock(NewLogicalClock(0))}, tc.base...)
				if with {
					opts = append(opts, tc.opt)
				}
				c, err := New(reg, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if got := tc.holds(t, c); got != with {
					t.Errorf("with the option: %v; the property holds: %v", with, got)
				}
				c.Close()
			}
		})
	}
}

package chain

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/mempool"
	"github.com/seldel/seldel/internal/verify"
)

func TestSubmitSealsAndResolves(t *testing.T) {
	env := newEnv(t, "alice")
	c := newChain(t, defaultConfig(env))
	defer c.Close()

	receipts, err := c.Submit(context.Background(), env.data("alice", "a"), env.data("alice", "b"))
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
		e, loc, ok := c.Lookup(sealed.Ref)
		if !ok {
			t.Fatalf("receipt %d: ref %s not resolvable", i, sealed.Ref)
		}
		if loc.Block != sealed.Block {
			t.Errorf("receipt %d: location block %d, sealed block %d", i, loc.Block, sealed.Block)
		}
		holder, _ := c.Block(sealed.Block)
		if holder.Hash() != sealed.BlockHash {
			t.Errorf("receipt %d: block hash mismatch", i)
		}
		if string(e.Payload) != []string{"a", "b"}[i] {
			t.Errorf("receipt %d: wrong entry payload %q", i, e.Payload)
		}
	}
}

func TestSubmitPerEntryValidationError(t *testing.T) {
	env := newEnv(t, "alice", "mallory")
	c := newChain(t, defaultConfig(env))
	defer c.Close()

	// mallory forges an entry owned by alice: the signature does not
	// verify, so the entry must be rejected through its receipt while
	// the good entry seals.
	forged := block.NewData("alice", []byte("forged")).Sign(env.keys["mallory"])
	receipts, err := c.Submit(context.Background(), env.data("alice", "good"), forged)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := receipts[0].Wait(context.Background()); err != nil {
		t.Errorf("good entry: %v", err)
	}
	if _, err := receipts[1].Wait(context.Background()); !errors.Is(err, ErrEntryInvalid) {
		t.Errorf("forged entry resolved with %v, want ErrEntryInvalid", err)
	}
	if err := c.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitAfterCloseAndIdempotentClose(t *testing.T) {
	env := newEnv(t, "alice")
	c := newChain(t, defaultConfig(env))
	if _, err := c.SubmitWait(context.Background(), env.data("alice", "x")); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(context.Background(), env.data("alice", "y")); !errors.Is(err, mempool.ErrClosed) {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
	// Never-submitted chains close cleanly too.
	c2 := newChain(t, defaultConfig(env))
	if err := c2.Close(); err != nil {
		t.Errorf("Close on fresh chain = %v", err)
	}
}

// TestSubmitConcurrentProducers is the pipeline's core concurrency
// guarantee: ≥16 goroutines submitting data and deletion entries at once,
// every receipt resolves, and the chain stays structurally intact. Run
// with -race.
func TestSubmitConcurrentProducers(t *testing.T) {
	env := newEnv(t, "alice", "bob")
	cfg := defaultConfig(env)
	cfg.MaxSequences = 0 // keep refs alive so deletions target live entries
	c := newChain(t, cfg)
	defer c.Close()

	// Seed data entries so the deletion producers have committed targets.
	seeded, err := c.SubmitWait(context.Background(),
		env.data("alice", "victim-0"), env.data("alice", "victim-1"),
		env.data("bob", "victim-2"), env.data("bob", "victim-3"))
	if err != nil {
		t.Fatal(err)
	}

	const producers = 16
	const perProducer = 25
	var wg sync.WaitGroup
	errs := make(chan error, producers*perProducer)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			owner := "alice"
			if p%2 == 1 {
				owner = "bob"
			}
			for i := 0; i < perProducer; i++ {
				var e *block.Entry
				if i == perProducer/2 && p < len(seeded) {
					// Interleave deletion requests with data writes. Only
					// the seeded ref's owner issues the request; wrong
					// requests would simply be recorded with no effect.
					owner = []string{"alice", "alice", "bob", "bob"}[p]
					e = env.del(owner, seeded[p].Ref)
				} else {
					e = env.data(owner, fmt.Sprintf("p%d-%d", p, i))
				}
				receipts, err := c.Submit(context.Background(), e)
				if err != nil {
					errs <- fmt.Errorf("producer %d: %w", p, err)
					return
				}
				if _, err := receipts[0].Wait(context.Background()); err != nil {
					errs <- fmt.Errorf("producer %d entry %d: %w", p, i, err)
				}
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
	st := c.Stats()
	ps := c.PipelineStats()
	if ps.Entries != producers*perProducer+4 {
		t.Errorf("pipeline sealed %d entries, want %d", ps.Entries, producers*perProducer+4)
	}
	if ps.Batches == 0 || uint64(st.AppendedBlocks) < ps.Batches {
		t.Errorf("implausible counters: %+v vs %+v", ps, st)
	}
	// Coalescing must actually happen: far fewer blocks than entries.
	if ps.Batches >= ps.Entries {
		t.Errorf("no coalescing: %d batches for %d entries", ps.Batches, ps.Entries)
	}
	for _, ref := range []block.Ref{seeded[0].Ref, seeded[1].Ref, seeded[2].Ref, seeded[3].Ref} {
		if !c.IsMarked(ref) {
			t.Errorf("deletion request for %s did not mark", ref)
		}
	}
}

func TestBlocksSeqAndEntriesSeq(t *testing.T) {
	env := newEnv(t, "alice")
	c := newChain(t, defaultConfig(env))
	for i := 0; i < 7; i++ {
		mustSeal(t, c, env.data("alice", fmt.Sprintf("e%d", i)))
	}

	var seqBlocks []*block.Block
	for b := range c.BlocksSeq() {
		seqBlocks = append(seqBlocks, b)
	}
	copied := c.Blocks()
	if len(seqBlocks) != len(copied) {
		t.Fatalf("BlocksSeq yielded %d, Blocks %d", len(seqBlocks), len(copied))
	}
	for i := range copied {
		if seqBlocks[i] != copied[i] {
			t.Errorf("block %d differs", i)
		}
	}

	// Early break must not deadlock or leak the lock.
	for range c.BlocksSeq() {
		break
	}
	if c.Len() != len(copied) {
		t.Error("chain unusable after early break")
	}

	// EntriesSeq yields every live entry with a resolvable stable ref,
	// and mutation mid-iteration is allowed (snapshot semantics).
	count := 0
	for ref, e := range c.EntriesSeq() {
		if e.Kind != block.KindData {
			continue
		}
		if got, _, ok := c.Lookup(ref); !ok || got.Hash() != e.Hash() {
			t.Errorf("ref %s does not resolve to yielded entry", ref)
		}
		if count == 0 {
			mustSeal(t, c, env.data("alice", "mid-iteration"))
		}
		count++
	}
	if count != 7 {
		t.Errorf("EntriesSeq yielded %d data entries, want 7", count)
	}
}

func TestPipelineStatsSurviveClose(t *testing.T) {
	env := newEnv(t, "alice")
	cfg := defaultConfig(env)
	// A verifier of its own with no cache: nothing warms, here or in a
	// chain some earlier test left behind, while the snapshots are taken.
	cfg.Verifier = verify.New(verify.Options{CacheSize: -1})
	c := newChain(t, cfg)
	if _, err := c.SubmitWait(context.Background(), env.data("alice", "x"), env.data("alice", "y")); err != nil {
		t.Fatal(err)
	}
	before := c.PipelineStats()
	if before.Entries != 2 {
		t.Fatalf("pre-close stats = %+v", before)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if after := c.PipelineStats(); after != before {
		t.Errorf("stats lost on Close: %+v != %+v", after, before)
	}
}

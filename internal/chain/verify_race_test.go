package chain

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/simclock"
	"github.com/seldel/seldel/internal/verify"
)

// TestParallelVerifier16Producers pushes 16 concurrent producers through
// the submission pipeline with a dedicated multi-worker verification
// pool while readers hammer Stats, PipelineStats, and the summary
// planner — the -race exercise for the lock-free verification path, the
// carried-entry ledger, and the warm/flush cache interplay. Run with
// `go test -race ./internal/chain`.
func TestParallelVerifier16Producers(t *testing.T) {
	reg := identity.NewRegistry()
	keys := make([]*identity.KeyPair, 16)
	for i := range keys {
		keys[i] = identity.Deterministic(fmt.Sprintf("producer-%02d", i), "race-test")
		if err := reg.RegisterKey(keys[i], identity.RoleUser); err != nil {
			t.Fatal(err)
		}
	}
	pool := verify.New(verify.Options{Workers: 4, CacheSize: 1 << 10})
	defer pool.Close()
	c, err := New(Config{
		SequenceLength: 4,
		MaxSequences:   3,
		Registry:       reg,
		Clock:          simclock.NewLogical(0),
		Verifier:       pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const perProducer = 50
	ctx := context.Background()
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Readers: snapshots and summary planning must be safe against the
	// parallel write path. They poll instead of spinning so the write
	// path keeps the CPU on small machines, and run on their own
	// WaitGroup (they only exit once the producers are done).
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			tick := time.NewTicker(500 * time.Microsecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				_ = c.Stats()
				_ = c.PipelineStats()
				_, _ = c.BuildSummary() // errors off-slot; must never race
				for range c.EntriesSeq() {
					break
				}
			}
		}()
	}

	errCh := make(chan error, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			kp := keys[w]
			var lastRef block.Ref
			for i := 0; i < perProducer; i++ {
				var e *block.Entry
				switch {
				case i%7 == 6 && lastRef != (block.Ref{}):
					e = block.NewDeletion(kp.Name(), lastRef).Sign(kp)
				case i%3 == 1:
					e = block.NewTemporary(kp.Name(), []byte(fmt.Sprintf("tmp-%d-%d", w, i)), 0, 1<<40).Sign(kp)
				default:
					e = block.NewData(kp.Name(), []byte(fmt.Sprintf("data-%d-%d", w, i))).Sign(kp)
				}
				sealed, err := c.SubmitWait(ctx, e)
				if err != nil {
					errCh <- fmt.Errorf("producer %d entry %d: %w", w, i, err)
					return
				}
				if e.Kind == block.KindData {
					lastRef = sealed[0].Ref
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	if err := c.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	// The ledger-backed planner and the naive reference must agree on
	// the final state reached through the fully concurrent path. Advance
	// to the next summary slot with bare appends (a pipelined seal would append
	// the due summary itself and never rest on the slot).
	for !c.NextIsSummary() {
		b, err := c.buildNormal(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AppendBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	inc, ref, _, _ := c.buildSummaryBothForTest()
	if inc.Hash() != ref.Hash() {
		t.Fatalf("planners disagree after concurrent run: %s vs %s", inc.Hash(), ref.Hash())
	}
	live, carried := c.recountStatsForTest()
	s := c.Stats()
	if s.LiveEntries != live || s.CarriedEntries != carried {
		t.Fatalf("stats diverged: incremental live=%d carried=%d, recount live=%d carried=%d",
			s.LiveEntries, s.CarriedEntries, live, carried)
	}
	ps := c.PipelineStats()
	if ps.QueueCap == 0 {
		t.Fatal("PipelineStats missing intake queue capacity")
	}
	if ps.Verify.Workers != 4 {
		t.Fatalf("PipelineStats verify workers = %d, want 4", ps.Verify.Workers)
	}
	if ps.Verify.Verified == 0 {
		t.Fatal("verify pool performed no verifications")
	}
	if ps.Verify.CacheHits == 0 {
		t.Fatal("warm pre-verification produced no cache hits")
	}
}

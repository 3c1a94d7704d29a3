package partition

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/seldel/seldel/internal/block"
)

// TestConcurrentDeletionFanOut is the cross-partition race check (run
// under -race in CI): deletion requests for entries spread over 4
// partitions execute concurrently with an ongoing submit load, and
// afterwards every partition that truncated has its own tombstone
// records with a spine anchor bracketing every one of them.
func TestConcurrentDeletionFanOut(t *testing.T) {
	env := newEnv(t, owners...)
	pc := newPartitioned(t, testConfig(env, 4))
	ctx := context.Background()

	// Phase 1: seed victims across the partitions.
	victims := make(map[string]block.Ref)
	for _, u := range owners {
		sealed, err := pc.SubmitWait(ctx, env.data(u, "victim-"+u))
		if err != nil {
			t.Fatal(err)
		}
		victims[u] = sealed[0].Ref
	}
	parts := make(map[int]bool)
	for _, v := range victims {
		parts[pc.Owner(v)] = true
	}
	if len(parts) < 2 {
		t.Fatalf("victims on %d partition(s); fan-out untested", len(parts))
	}

	// Phase 2: deletions fan out concurrently with submit churn. The
	// churn drives each partition past its retention bound, so the
	// deletions truncate while other goroutines keep writing.
	var wg sync.WaitGroup
	errs := make(chan error, len(owners)*2)
	for _, u := range owners {
		wg.Add(1)
		go func(u string) {
			defer wg.Done()
			if _, err := pc.SubmitWait(ctx, env.del(u, victims[u])); err != nil {
				errs <- fmt.Errorf("delete %s: %w", u, err)
			}
		}(u)
		wg.Add(1)
		go func(u string) {
			defer wg.Done()
			for i := 0; i < 24; i++ {
				if _, err := pc.SubmitWait(ctx, env.data(u, fmt.Sprintf("churn-%s-%d", u, i))); err != nil {
					errs <- fmt.Errorf("churn %s: %w", u, err)
					return
				}
			}
		}(u)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Push every victim's partition until the merge that executes its
	// mark has run — the marker passing the victim's block is not
	// enough: churn that outran the request carried the victim first,
	// and the mark then executes at the next merge — then let
	// compaction settle.
	live := func(v block.Ref) bool {
		_, _, ok := pc.Part(pc.Owner(v)).Lookup(v)
		return ok
	}
	for u, v := range victims {
		p := pc.Owner(v)
		for i := 0; live(v); i++ {
			if i > 64 {
				t.Fatalf("partition %d never forgot %s", p, v)
			}
			if _, err := pc.SubmitWait(ctx, env.data(u, fmt.Sprintf("push-%s-%d", u, i))); err != nil {
				t.Fatal(err)
			}
			if err := pc.Part(p).CompactWait(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := pc.CompactWait(ctx); err != nil {
		t.Fatal(err)
	}

	// Per-partition tombstone records exist for every truncating
	// partition, and every victim's tombstone is in its own partition's
	// records (not another partition's).
	for p := range parts {
		recs, err := pc.Part(p).Tombstones(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			t.Errorf("partition %d truncated but has no deletion records", p)
		}
		stride := pc.StrideWidth()
		for _, r := range recs {
			if r.OldMarker/stride != uint64(p) && r.OldMarker != 0 {
				t.Errorf("partition %d record covers stripe %d", p, r.OldMarker/stride)
			}
		}
	}
	for u, v := range victims {
		recs, err := pc.Part(pc.Owner(v)).Tombstones(ctx)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, r := range recs {
			if _, ok := r.FindTombstone(v); ok {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("victim %s (%s) has no tombstone on its partition", u, v)
		}
	}

	// Spine bracket: every deletion record of every partition is
	// covered by an anchor sealed at or after it — syncing first so
	// records whose truncation just executed are anchored too.
	if err := pc.AnchorAll(ctx); err != nil {
		t.Fatal(err)
	}
	pc.spine.mu.Lock()
	for p := range pc.parts {
		tr := pc.spine.trackers[p]
		for k := uint64(0); k < tr.count(); k++ {
			if _, _, ok := pc.spine.coveringAnchorLocked(p, k); !ok {
				t.Errorf("record %d of partition %d has no bracketing anchor", k, p)
			}
		}
	}
	pc.spine.mu.Unlock()
	if err := pc.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}

	// And the proofs the spine exists for still verify, concurrently.
	var pwg sync.WaitGroup
	perr := make(chan error, len(victims))
	for _, v := range victims {
		pwg.Add(1)
		go func(v block.Ref) {
			defer pwg.Done()
			proof, err := pc.ProveDeleted(ctx, v)
			if err != nil {
				perr <- err
				return
			}
			if err := proof.Verify(); err != nil {
				perr <- err
			}
		}(v)
	}
	pwg.Wait()
	close(perr)
	for err := range perr {
		t.Fatal(err)
	}
}

package experiments

import (
	"context"
	"fmt"
	"os"
	"time"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/simclock"
	"github.com/seldel/seldel/internal/store"
	"github.com/seldel/seldel/internal/store/segment"
)

// This file is the deletion-manifest dimension of `seldel-bench -json`
// (PR 6): it prices the durable audit trail. The lifecycle rows run the
// same write+delete+compact workload against a segment store with the
// DELETIONS log enabled and disabled, so the delta is the fsynced
// record append on every marker shift. The proofs row measures the
// audit-query side: tombstone proofs built by ProveDeleted and checked
// by Verify, per second, over a chain whose deletions have already
// compacted away.

// ManifestResult is one measured manifest configuration.
type ManifestResult struct {
	// Op is "lifecycle" (write+delete rounds against a persistent
	// store) or "proofs" (ProveDeleted+Verify over sealed tombstones).
	Op string `json:"op"`
	// Manifest reports whether the durable deletion manifest was
	// enabled; always true for proofs rows.
	Manifest bool `json:"manifest"`
	// Rounds is the number of write+delete rounds driven (lifecycle)
	// or proofs built and verified (proofs).
	Rounds int `json:"rounds"`
	// Records is the number of deletion records the chain sealed.
	Records int `json:"records"`
	// Seconds is the measured wall-clock time.
	Seconds float64 `json:"seconds"`
	// RatePerSec is Rounds / Seconds.
	RatePerSec float64 `json:"rate_per_sec"`
}

// manifestChain builds a bounded chain over a segment store in a fresh
// temp dir. Callers must call the returned cleanup.
func manifestChain(enabled bool) (*chain.Chain, func(), error) {
	reg := identity.NewRegistry()
	kp := identity.Deterministic("manifest-bench", "seldel-manifest")
	if err := reg.RegisterKey(kp, identity.RoleUser); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp("", "seldel-bench-manifest-*")
	if err != nil {
		return nil, nil, err
	}
	ss, err := segment.Open(dir, segment.Options{DisableManifest: !enabled})
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	c, err := store.Open(chain.Config{
		SequenceLength: 6,
		MaxBlocks:      24,
		Shrink:         chain.ShrinkMinimal,
		Registry:       reg,
		Clock:          simclock.NewLogical(0),
	}, ss)
	if err != nil {
		ss.Close()
		os.RemoveAll(dir)
		return nil, nil, err
	}
	cleanup := func() {
		c.Close()
		ss.Close()
		os.RemoveAll(dir)
	}
	return c, cleanup, nil
}

// driveManifestRounds runs write+delete rounds on c, compacting every
// eighth round, and returns the refs of the entries it deleted.
func driveManifestRounds(c *chain.Chain, rounds int) ([]block.Ref, error) {
	kp := identity.Deterministic("manifest-bench", "seldel-manifest")
	ctx := context.Background()
	refs := make([]block.Ref, 0, rounds)
	for i := 0; i < rounds; i++ {
		sealed, err := c.SubmitWait(ctx,
			block.NewData(kp.Name(), []byte(fmt.Sprintf("mb-%05d", i))).Sign(kp))
		if err != nil {
			return nil, err
		}
		refs = append(refs, sealed[0].Ref)
		if _, err := c.SubmitWait(ctx, block.NewDeletion(kp.Name(), sealed[0].Ref).Sign(kp)); err != nil {
			return nil, err
		}
		if i%8 == 7 {
			if err := c.CompactWait(ctx); err != nil {
				return nil, err
			}
		}
	}
	if err := c.CompactWait(ctx); err != nil {
		return nil, err
	}
	return refs, nil
}

// measureManifestLifecycle times the write+delete workload with the
// durable manifest on or off; the on/off rate ratio is the audit
// trail's append overhead.
func measureManifestLifecycle(rounds int, enabled bool) (ManifestResult, error) {
	c, cleanup, err := manifestChain(enabled)
	if err != nil {
		return ManifestResult{}, err
	}
	defer cleanup()
	start := time.Now()
	if _, err := driveManifestRounds(c, rounds); err != nil {
		return ManifestResult{}, fmt.Errorf("manifest lifecycle (manifest=%v): %w", enabled, err)
	}
	elapsed := time.Since(start).Seconds()
	recs, err := c.Tombstones(context.Background())
	if err != nil {
		return ManifestResult{}, err
	}
	return ManifestResult{
		Op:         "lifecycle",
		Manifest:   enabled,
		Rounds:     rounds,
		Records:    len(recs),
		Seconds:    elapsed,
		RatePerSec: float64(rounds) / elapsed,
	}, nil
}

// measureTombstoneProofs builds a compacted chain, then times
// ProveDeleted+Verify cycles over its tombstoned entries — the
// audit-query hot loop.
func measureTombstoneProofs(n int) (ManifestResult, error) {
	c, cleanup, err := manifestChain(true)
	if err != nil {
		return ManifestResult{}, err
	}
	defer cleanup()
	refs, err := driveManifestRounds(c, 48)
	if err != nil {
		return ManifestResult{}, fmt.Errorf("manifest proofs setup: %w", err)
	}
	// Keep the refs whose deletions have compacted into a record;
	// entries still ahead of the marker have no tombstone yet.
	proved := refs[:0]
	for _, ref := range refs {
		if _, err := c.ProveDeleted(ref); err == nil {
			proved = append(proved, ref)
		}
	}
	if len(proved) == 0 {
		return ManifestResult{}, fmt.Errorf("manifest proofs: no tombstoned entries after %d rounds", len(refs))
	}
	recs, err := c.Tombstones(context.Background())
	if err != nil {
		return ManifestResult{}, err
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		p, err := c.ProveDeleted(proved[i%len(proved)])
		if err != nil {
			return ManifestResult{}, fmt.Errorf("manifest proofs: %w", err)
		}
		if err := p.Verify(); err != nil {
			return ManifestResult{}, fmt.Errorf("manifest proofs: verify: %w", err)
		}
	}
	elapsed := time.Since(start).Seconds()
	return ManifestResult{
		Op:         "proofs",
		Manifest:   true,
		Rounds:     n,
		Records:    len(recs),
		Seconds:    elapsed,
		RatePerSec: float64(n) / elapsed,
	}, nil
}

// measureManifestDimension runs the lifecycle pair and the proof loop;
// the returned rate is the proofs row's RatePerSec, the headline
// audit-query metric guarded by the bench gate.
func measureManifestDimension(n int) ([]ManifestResult, float64, error) {
	rounds := n / 8
	if rounds < 24 {
		rounds = 24
	}
	out := make([]ManifestResult, 0, 3)
	for _, enabled := range []bool{false, true} {
		r, err := measureManifestLifecycle(rounds, enabled)
		if err != nil {
			return nil, 0, fmt.Errorf("manifest dimension: %w", err)
		}
		out = append(out, r)
	}
	pr, err := measureTombstoneProofs(n)
	if err != nil {
		return nil, 0, fmt.Errorf("manifest dimension: %w", err)
	}
	out = append(out, pr)
	return out, pr.RatePerSec, nil
}

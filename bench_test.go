package seldel

// Go micro-benchmarks, one per experiment area (the index E1–E12 is the
// package comment of internal/experiments): `go test -bench=. -benchmem`.
// The table/figure outputs come from `seldel-bench`; end-to-end speed is
// measured by the repo benchmark (benchmark/README.md).

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/seldel/seldel/internal/attack"
	"github.com/seldel/seldel/internal/baseline"
	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/codec"
	"github.com/seldel/seldel/internal/consensus"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/simclock"
)

func benchEnv(b *testing.B) (*identity.Registry, *identity.KeyPair) {
	b.Helper()
	reg := identity.NewRegistry()
	kp := identity.Deterministic("bench", "seldel-bench")
	if err := reg.RegisterKey(kp, identity.RoleUser); err != nil {
		b.Fatal(err)
	}
	return reg, kp
}

func benchChain(b *testing.B, maxBlocks int) (*chain.Chain, *identity.KeyPair) {
	b.Helper()
	reg, kp := benchEnv(b)
	c, err := chain.New(chain.Config{
		SequenceLength: 6,
		MaxBlocks:      maxBlocks,
		Shrink:         chain.ShrinkMinimal,
		Registry:       reg,
		Clock:          simclock.NewLogical(0),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = c.Close() })
	return c, kp
}

// BenchmarkAppendBounded is E4's seldel arm: sustained append throughput
// on a bounded chain, merges included.
func BenchmarkAppendBounded(b *testing.B) {
	c, kp := benchChain(b, 60)
	b.ReportAllocs()
	b.ResetTimer()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		e := block.NewData("bench", []byte(fmt.Sprintf("p%d", i))).Sign(kp)
		if _, err := c.SubmitWait(ctx, e); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(c.Stats().CutBlocks), "cut_blocks")
}

// BenchmarkAppendPlain is E4's baseline arm: the same workload on a
// conventional unbounded chain.
func BenchmarkAppendPlain(b *testing.B) {
	_, kp := benchEnv(b)
	p := baseline.NewPlain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := block.NewData("bench", []byte(fmt.Sprintf("p%d", i))).Sign(kp)
		p.Append([]*block.Entry{e})
	}
}

// BenchmarkSummaryCreationFullCopy is E6: building a summary block that
// carries n full entries.
func BenchmarkSummaryCreationFullCopy(b *testing.B) {
	for _, n := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			_, kp := benchEnv(b)
			carried := make([]block.CarriedEntry, n)
			for i := range carried {
				carried[i] = block.CarriedEntry{
					OriginBlock: uint64(i / 4), OriginTime: uint64(i / 4), EntryNumber: uint32(i % 4),
					Entry: block.NewData("bench", make([]byte, 256)).Sign(kp),
				}
			}
			prev := codec.HashBytes([]byte("prev"))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				block.NewSummary(99, 98, prev, carried, nil)
			}
		})
	}
}

// BenchmarkSummaryCreationHashRef is E6's mitigation arm: the same
// summary with 32-byte hash references instead of payloads (§V-B.2).
func BenchmarkSummaryCreationHashRef(b *testing.B) {
	for _, n := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			_, kp := benchEnv(b)
			carried := make([]block.CarriedEntry, n)
			for i := range carried {
				h := codec.HashBytes(make([]byte, 256))
				carried[i] = block.CarriedEntry{
					OriginBlock: uint64(i / 4), OriginTime: uint64(i / 4), EntryNumber: uint32(i % 4),
					Entry: block.NewData("bench", h[:]).Sign(kp),
				}
			}
			prev := codec.HashBytes([]byte("prev"))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				block.NewSummary(99, 98, prev, carried, nil)
			}
		})
	}
}

// BenchmarkDeletionRequest is E7: validating a deletion request against
// a live chain (direct (α, entry) addressing keeps this flat).
func BenchmarkDeletionRequest(b *testing.B) {
	for _, live := range []int{120, 960} {
		b.Run(fmt.Sprintf("live=%d", live), func(b *testing.B) {
			c, kp := benchChain(b, live)
			ctx := context.Background()
			var last block.Ref
			for c.Len() < live {
				sealed, err := c.SubmitWait(ctx,
					block.NewData("bench", []byte("x")).Sign(kp))
				if err != nil {
					b.Fatal(err)
				}
				last = sealed[0].Ref
			}
			req := block.NewDeletion("bench", last).Sign(kp)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.CheckDeletionRequest(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLookup is E7's addressing primitive.
func BenchmarkLookup(b *testing.B) {
	c, kp := benchChain(b, 960)
	ctx := context.Background()
	var last block.Ref
	for c.Len() < 960 {
		sealed, err := c.SubmitWait(ctx, block.NewData("bench", []byte("x")).Sign(kp))
		if err != nil {
			b.Fatal(err)
		}
		last = sealed[0].Ref
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := c.Lookup(last); !ok {
			b.Fatal("lost entry")
		}
	}
}

// BenchmarkTTLExpiry is E9: append throughput when every entry carries a
// TTL and merges continuously expire old ones.
func BenchmarkTTLExpiry(b *testing.B) {
	c, kp := benchChain(b, 60)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := block.NewTemporary("bench", []byte("log line"), 0, c.NextNumber()+30).Sign(kp)
		if _, err := c.SubmitWait(ctx, e); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(c.Stats().ExpiredEntries), "expired")
}

// BenchmarkAttackSimulation is E5: one Monte-Carlo race batch at the
// guarded depth.
func BenchmarkAttackSimulation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := attack.SimulateRace(attack.RaceConfig{
			AttackerPower: 0.3, Deficit: 12, Trials: 1000, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChameleonRedact is E10: per-redaction cost of the
// chameleon-hash baseline (O(1) in chain length, trapdoor required).
func BenchmarkChameleonRedact(b *testing.B) {
	key, err := baseline.GenerateChameleonKey()
	if err != nil {
		b.Fatal(err)
	}
	c := baseline.NewChameleonChain(key)
	for i := 0; i < 100; i++ {
		if _, err := c.Append([]byte(fmt.Sprintf("content-%d", i))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Redact(uint64(1+i%99), []byte(fmt.Sprintf("redacted-%d", i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHardFork is E10: per-deletion cost of the hard-fork baseline
// (O(chain length)).
func BenchmarkHardFork(b *testing.B) {
	_, kp := benchEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h := baseline.NewHardFork()
		for j := 0; j < 200; j++ {
			h.Append([]*block.Entry{block.NewData("bench", []byte("x")).Sign(kp)})
		}
		b.StartTimer()
		if _, err := h.Delete(block.Ref{Block: 100, Entry: 0}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConsensus is E12: commit cost under each engine.
func BenchmarkConsensus(b *testing.B) {
	engines := map[string]consensus.Engine{
		"noop":  consensus.NoOp{},
		"pow8":  consensus.NewPoW(8),
		"pow12": consensus.NewPoW(12),
	}
	for name, engine := range engines {
		b.Run(name, func(b *testing.B) {
			reg, kp := benchEnv(b)
			cfg := chain.Config{
				SequenceLength: 6,
				MaxBlocks:      60,
				Shrink:         chain.ShrinkMinimal,
				Registry:       reg,
				Clock:          simclock.NewLogical(0),
			}
			consensus.Configure(&cfg, engine)
			c, err := chain.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := block.NewData("bench", []byte(fmt.Sprintf("p%d", i))).Sign(kp)
				if _, err := c.SubmitWait(ctx, e); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVerifyIntegrity measures the cost of the full-chain check
// that clients run after syncing from the marker (§V-B.3: nodes accept
// only chains traceable from their status quo).
func BenchmarkVerifyIntegrity(b *testing.B) {
	c, kp := benchChain(b, 240)
	ctx := context.Background()
	for c.Len() < 240 {
		if _, err := c.SubmitWait(ctx, block.NewData("bench", []byte("x")).Sign(kp)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.VerifyIntegrity(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubmitPipeline measures the concurrent submission pipeline
// under parallel producers (compare with BenchmarkAppendBounded, the
// single-caller Commit baseline it replaces).
func BenchmarkSubmitPipeline(b *testing.B) {
	c, kp := benchChain(b, 0)
	defer c.Close()
	ctx := context.Background()
	var n atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// b.Error, not b.Fatal: FailNow must not run on RunParallel
		// worker goroutines.
		var receipts []Receipt
		for pb.Next() {
			i := n.Add(1)
			e := block.NewData("bench", []byte(fmt.Sprintf("p%d", i))).Sign(kp)
			rs, err := c.Submit(ctx, e)
			if err != nil {
				b.Error(err)
				return
			}
			receipts = append(receipts, rs...)
		}
		for _, r := range receipts {
			if _, err := r.Wait(ctx); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	st := c.PipelineStats()
	if st.Batches > 0 {
		b.ReportMetric(float64(st.Entries)/float64(st.Batches), "entries/block")
	}
}

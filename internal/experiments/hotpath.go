package experiments

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/mempool"
	"github.com/seldel/seldel/internal/simclock"
	"github.com/seldel/seldel/internal/store"
	"github.com/seldel/seldel/internal/store/segment"
	"github.com/seldel/seldel/internal/verify"
)

// This file is the hot-path dimension of `seldel-bench -json` (PR 7):
// where the other dimensions report blocks/sec, this one measures the
// costs that compound underneath throughput — heap allocations per
// appended entry and fsyncs per appended block — so a regression in
// either is visible even when wall-clock numbers stay flat.

// HotPathResult is one measured hot-path configuration.
type HotPathResult struct {
	// Op is "append-allocs" (allocations per entry through the full
	// submit→seal→store pipeline) or "durability" (fsyncs per block
	// under a durability mode).
	Op string `json:"op"`
	// Mode distinguishes durability rows: "roll-only" (fsync on segment
	// roll only — fast, receipts resolve before durability),
	// "sync-every" (fsync per block), "group" (group commit: many
	// blocks per fsync, receipts resolve at the durability point).
	// Allocation rows use "pipelined".
	Mode string `json:"mode"`
	// Producers is the number of concurrent submitting goroutines.
	Producers int `json:"producers"`
	// Entries is the number of entries in the measured section.
	Entries int `json:"entries"`
	// Blocks is the number of blocks appended during the measurement.
	Blocks uint64 `json:"blocks"`
	// AllocsPerEntry / BytesPerEntry are heap allocations (count and
	// bytes) per submitted entry across the whole process — producers,
	// mempool, verify pool, sealing, and store append included.
	AllocsPerEntry float64 `json:"allocs_per_entry,omitempty"`
	BytesPerEntry  float64 `json:"bytes_per_entry,omitempty"`
	// Fsyncs is the segment store's data-fsync count over the measured
	// section; FsyncsPerBlock divides it by Blocks.
	Fsyncs         uint64  `json:"fsyncs,omitempty"`
	FsyncsPerBlock float64 `json:"fsyncs_per_block,omitempty"`
	// GroupWindowMillis is the group-commit accumulation window the
	// "group" row ran with (the bound on extra receipt latency).
	GroupWindowMillis float64 `json:"group_window_millis,omitempty"`
	// Seconds / OpsPerSec time the measured section.
	Seconds   float64 `json:"seconds"`
	OpsPerSec float64 `json:"ops_per_sec"`
}

// HotPathBaseline pins the numbers this same harness measured at the
// PR 6 HEAD (before the zero-copy and group-commit work), so the
// report carries its own before/after comparison on hardware where
// both were measured identically.
type HotPathBaseline struct {
	// Commit is the git commit the baseline was measured at.
	Commit string `json:"commit"`
	// AllocsPerEntry / BytesPerEntry are the pipelined single-producer
	// append-path allocation costs per entry.
	AllocsPerEntry float64 `json:"allocs_per_entry"`
	BytesPerEntry  float64 `json:"bytes_per_entry"`
	// FsyncsPerBlockSyncEvery / FsyncsPerBlockRollOnly are the two
	// pre-group-commit durability points: per-block fsync (durable
	// receipts, one fsync per block) and roll-only (near-zero fsyncs,
	// receipts resolve before durability).
	FsyncsPerBlockSyncEvery float64 `json:"fsyncs_per_block_sync_every"`
	FsyncsPerBlockRollOnly  float64 `json:"fsyncs_per_block_roll_only"`
}

// hotPathBaselinePR6 was measured on the dev box at PR 6 HEAD
// (commit 4c6a91e, plus only the fsync counter and this harness) over
// the 4000-entry workload, before any PR 7 optimization landed. The
// "≥50% allocs/op reduction" acceptance bar is judged against
// AllocsPerEntry here.
var hotPathBaselinePR6 = HotPathBaseline{
	Commit:                  "4c6a91e",
	AllocsPerEntry:          27.5,
	BytesPerEntry:           4696,
	FsyncsPerBlockSyncEvery: 1.0,
	FsyncsPerBlockRollOnly:  0,
}

// hotPathStore opens a fresh segment store in a temp dir.
func hotPathStore(opts segment.Options) (*segment.Store, string, error) {
	dir, err := os.MkdirTemp("", "seldel-bench-hot-*")
	if err != nil {
		return nil, "", err
	}
	ss, err := segment.Open(dir, opts)
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	return ss, dir, nil
}

// hotPathChain builds the measured chain: the pipeline geometry the
// submission benchmark uses, mirrored into ss.
func hotPathChain(e *env, pool *verify.Pool, ss *segment.Store, durability chain.Durability) (*chain.Chain, error) {
	return store.Open(chain.Config{
		SequenceLength: 8,
		Registry:       e.registry,
		Clock:          simclock.NewLogical(0),
		Verifier:       pool,
		Durability:     durability,
	}, ss)
}

// submitAll fans entries over p producers (the measureSubmitWith
// pattern: pipelined Submit, wait all receipts at the end).
func submitAll(c *chain.Chain, entries []*block.Entry, p int) error {
	ctx := context.Background()
	var wg sync.WaitGroup
	errCh := make(chan error, p)
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			receipts := make([]mempool.Receipt, 0, len(entries)/p+1)
			for i := w; i < len(entries); i += p {
				// Re-slice rather than passing the entry alone: variadic
				// boxing would charge one harness allocation per submission
				// to the measured section.
				rs, err := c.Submit(ctx, entries[i:i+1]...)
				if err != nil {
					errCh <- err
					return
				}
				receipts = append(receipts, rs...)
			}
			for _, r := range receipts {
				if _, err := r.Wait(ctx); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return err
	}
	return nil
}

// measureHotPathAllocs measures heap allocations per entry on the
// single-producer pipelined append path. The warmup slice spins up the
// lazy pipeline (batcher goroutine, verify workers, first segment) so
// the measured section sees steady state only.
func measureHotPathAllocs(e *env, warmup, entries []*block.Entry) (HotPathResult, error) {
	pool := freshPool(0, true)
	defer pool.Close()
	ss, dir, err := hotPathStore(segment.Options{})
	if err != nil {
		return HotPathResult{}, err
	}
	defer os.RemoveAll(dir)
	defer ss.Close()
	c, err := hotPathChain(e, pool, ss, chain.Durability{})
	if err != nil {
		return HotPathResult{}, err
	}
	defer c.Close()
	if err := submitAll(c, warmup, 1); err != nil {
		return HotPathResult{}, fmt.Errorf("hotpath allocs warmup: %w", err)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	if err := submitAll(c, entries, 1); err != nil {
		return HotPathResult{}, fmt.Errorf("hotpath allocs: %w", err)
	}
	elapsed := time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	n := float64(len(entries))
	return HotPathResult{
		Op:             "append-allocs",
		Mode:           "pipelined",
		Producers:      1,
		Entries:        len(entries),
		Blocks:         c.Stats().AppendedBlocks,
		AllocsPerEntry: float64(m1.Mallocs-m0.Mallocs) / n,
		BytesPerEntry:  float64(m1.TotalAlloc-m0.TotalAlloc) / n,
		Seconds:        elapsed,
		OpsPerSec:      n / elapsed,
	}, nil
}

// measureHotPathDurability runs the 16-producer submission workload
// against a segment store in one durability mode and reports fsyncs
// per appended block.
func measureHotPathDurability(e *env, entries []*block.Entry, p int, mode string) (HotPathResult, error) {
	var opts segment.Options
	group := false
	switch mode {
	case "roll-only":
	case "sync-every":
		opts.SyncEvery = true
	case "group":
		group = true
	default:
		return HotPathResult{}, fmt.Errorf("hotpath: unknown durability mode %q", mode)
	}
	pool := freshPool(0, true)
	defer pool.Close()
	ss, dir, err := hotPathStore(opts)
	if err != nil {
		return HotPathResult{}, err
	}
	defer os.RemoveAll(dir)
	defer ss.Close()
	var durability chain.Durability
	if group {
		// The window is sized for the dev box's sealing cadence
		// (~10-15ms per 256-entry block, verify-bound): a slow disk's
		// fsync latency groups blocks by itself, a fast one needs the
		// explicit window to amortize.
		durability = chain.Durability{
			Mode:        chain.DurabilityGroup,
			GroupWindow: hotPathGroupWindow,
		}
	}
	c, err := hotPathChain(e, pool, ss, durability)
	if err != nil {
		return HotPathResult{}, err
	}
	defer c.Close()
	// Count only the measured section's fsyncs: store attachment costs
	// a marker reconciliation (2 syncs) and Close a final one — both
	// shutdown/startup, not append path.
	f0 := ss.FsyncCount()
	blocks0 := c.Stats().AppendedBlocks
	start := time.Now()
	if err := submitAll(c, entries, p); err != nil {
		return HotPathResult{}, fmt.Errorf("hotpath durability (%s): %w", mode, err)
	}
	elapsed := time.Since(start).Seconds()
	fsyncs := ss.FsyncCount() - f0
	blocks := c.Stats().AppendedBlocks - blocks0
	r := HotPathResult{
		Op:        "durability",
		Mode:      mode,
		Producers: p,
		Entries:   len(entries),
		Blocks:    blocks,
		Fsyncs:    fsyncs,
		Seconds:   elapsed,
		OpsPerSec: float64(len(entries)) / elapsed,
	}
	if blocks > 0 {
		r.FsyncsPerBlock = float64(fsyncs) / float64(blocks)
	}
	if group {
		r.GroupWindowMillis = float64(hotPathGroupWindow.Milliseconds())
	}
	return r, nil
}

// hotPathGroupWindow is the group-commit accumulation window the bench
// row runs with.
const hotPathGroupWindow = 50 * time.Millisecond

// hotPathModes are the measured durability configurations.
var hotPathModes = []string{"roll-only", "sync-every", "group"}

// measureHotPathDimension runs the full hot-path dimension over n
// entries: the allocation profile of the pipelined append path, then
// fsyncs/block at 16 producers for each durability mode.
func measureHotPathDimension(n int) ([]HotPathResult, error) {
	e, err := newEnv("hotpath")
	if err != nil {
		return nil, err
	}
	warmN := n / 8
	if warmN < 64 {
		warmN = 64
	}
	all := pipelineEntries(e.keys["hotpath"], n+warmN)
	warmup, entries := all[:warmN], all[warmN:]

	out := make([]HotPathResult, 0, 1+len(hotPathModes))
	// Best of three like every other dimension; for allocations "best"
	// means fewest allocs/entry (GC timing jitters the counters).
	var alloc HotPathResult
	for i := 0; i < 3; i++ {
		r, err := measureHotPathAllocs(e, warmup, entries)
		if err != nil {
			return nil, err
		}
		if alloc.Entries == 0 || r.AllocsPerEntry < alloc.AllocsPerEntry {
			alloc = r
		}
	}
	out = append(out, alloc)

	for _, mode := range hotPathModes {
		var best HotPathResult
		for i := 0; i < 3; i++ {
			r, err := measureHotPathDurability(e, entries, 16, mode)
			if err != nil {
				return nil, err
			}
			if best.Entries == 0 || r.OpsPerSec > best.OpsPerSec {
				best = r
			}
		}
		out = append(out, best)
	}
	return out, nil
}

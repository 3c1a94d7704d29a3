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

// This file is the storage dimension of `seldel-bench -json` (PR 4):
// it measures the segmented persistent store along the three axes
// the store exists for — append throughput under different
// durability settings,
// restore time from the snapshot checkpoint versus replaying a full
// unbounded history, and bytes physically reclaimed when a deletion
// retires segments.

// StorageResult is one measured storage configuration.
type StorageResult struct {
	// Op is "append", "restore", or "reclaim".
	Op string `json:"op"`
	// Store is "segment" or "segment-syncevery".
	Store string `json:"store"`
	// Detail distinguishes restore sources: "snapshot" (truncated
	// segment store, replay starts at the marker) vs "genesis"
	// (unbounded history, replay starts at block 0).
	Detail string `json:"detail,omitempty"`
	// Blocks is the number of blocks written (append), replayed
	// (restore), or stored before truncation (reclaim).
	Blocks int `json:"blocks"`
	// Seconds is the measured wall-clock time.
	Seconds float64 `json:"seconds,omitempty"`
	// BlocksPerSec is Blocks / Seconds.
	BlocksPerSec float64 `json:"blocks_per_sec,omitempty"`
	// BytesBefore/BytesAfter/BytesReclaimed report the physical store
	// size around a truncation (reclaim rows only).
	BytesBefore    int64 `json:"bytes_before,omitempty"`
	BytesAfter     int64 `json:"bytes_after,omitempty"`
	BytesReclaimed int64 `json:"bytes_reclaimed,omitempty"`
	// Segments is the live segment-file count after the operation
	// (segment stores only).
	Segments int `json:"segments,omitempty"`
}

// storageBlocks builds n hash-linked normal blocks of e signed entries
// each, outside the measured section.
func storageBlocks(kp *identity.KeyPair, n, e int) []*block.Block {
	blocks := make([]*block.Block, 0, n)
	prevHash := block.GenesisPrevHash
	for num := 0; num < n; num++ {
		entries := make([]*block.Entry, e)
		for j := range entries {
			entries[j] = block.NewData(kp.Name(), []byte(fmt.Sprintf("blk-%05d-%02d", num, j))).Sign(kp)
		}
		b := block.NewNormal(uint64(num), uint64(num+1), prevHash, entries)
		prevHash = b.Hash()
		blocks = append(blocks, b)
	}
	return blocks
}

// measureAppend times PutBlock over a prebuilt block sequence.
func measureAppend(name string, s store.Store, blocks []*block.Block) (StorageResult, error) {
	start := time.Now()
	for _, b := range blocks {
		if err := s.PutBlock(b); err != nil {
			return StorageResult{}, fmt.Errorf("storage append (%s): %w", name, err)
		}
	}
	elapsed := time.Since(start).Seconds()
	r := StorageResult{
		Op:           "append",
		Store:        name,
		Blocks:       len(blocks),
		Seconds:      elapsed,
		BlocksPerSec: float64(len(blocks)) / elapsed,
	}
	if seg, ok := s.(*segment.Store); ok {
		r.Segments, _ = seg.SegmentCount()
	}
	return r, nil
}

// measureAppendDimension compares append throughput of segment
// appends with batched and with per-block fsync.
func measureAppendDimension(n int) ([]StorageResult, error) {
	kp := identity.Deterministic("storage-bench", "seldel-storage")
	blocks := storageBlocks(kp, n, 4)
	out := make([]StorageResult, 0, 2)

	for _, cfg := range []struct {
		name string
		opts segment.Options
	}{
		{"segment", segment.Options{}},
		{"segment-syncevery", segment.Options{SyncEvery: true}},
	} {
		dir, err := os.MkdirTemp("", "seldel-bench-seg-*")
		if err != nil {
			return nil, err
		}
		ss, err := segment.Open(dir, cfg.opts)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		r, err := measureAppend(cfg.name, ss, blocks)
		if err == nil {
			err = ss.Close()
		}
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// storageChainConfig is the restore workload's chain geometry.
func storageChainConfig(reg *identity.Registry, bounded bool) chain.Config {
	cfg := chain.Config{
		SequenceLength: 6,
		Registry:       reg,
		Clock:          simclock.NewLogical(0),
	}
	if bounded {
		cfg.MaxBlocks = 24
		cfg.Shrink = chain.ShrinkMinimal
	}
	return cfg
}

// runRestoreWorkload writes `rounds` write+delete rounds through a
// chain mirrored into s, waits out compaction, and returns the
// store's peak observed size.
func runRestoreWorkload(reg *identity.Registry, kp *identity.KeyPair, s store.Store, bounded bool, rounds int) (int64, error) {
	cfg := storageChainConfig(reg, bounded)
	c, err := store.Open(cfg, s)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	ctx := context.Background()
	var peak int64
	for i := 0; i < rounds; i++ {
		sealed, err := c.SubmitWait(ctx,
			block.NewData(kp.Name(), []byte(fmt.Sprintf("rs-%05d", i))).Sign(kp))
		if err != nil {
			return 0, err
		}
		if _, err := c.SubmitWait(ctx, block.NewDeletion(kp.Name(), sealed[0].Ref).Sign(kp)); err != nil {
			return 0, err
		}
		if i%8 == 7 {
			if err := c.CompactWait(ctx); err != nil {
				return 0, err
			}
			if sz, err := s.SizeBytes(); err == nil && sz > peak {
				peak = sz
			}
		}
	}
	if err := c.CompactWait(ctx); err != nil {
		return 0, err
	}
	if sz, err := s.SizeBytes(); err == nil && sz > peak {
		peak = sz
	}
	return peak, nil
}

// measureRestore times store.Open over a populated store.
func measureRestore(name, detail string, reg *identity.Registry, s store.Store, bounded bool) (StorageResult, error) {
	cfg := storageChainConfig(reg, bounded)
	cfg.Clock = simclock.NewLogical(0)
	start := time.Now()
	c, err := store.Open(cfg, s)
	if err != nil {
		return StorageResult{}, fmt.Errorf("storage restore (%s): %w", detail, err)
	}
	elapsed := time.Since(start).Seconds()
	replayed := int(c.Stats().AppendedBlocks)
	if err := c.Close(); err != nil {
		return StorageResult{}, err
	}
	return StorageResult{
		Op:           "restore",
		Store:        name,
		Detail:       detail,
		Blocks:       replayed,
		Seconds:      elapsed,
		BlocksPerSec: float64(replayed) / elapsed,
	}, nil
}

// measureStorageDimension runs the full storage dimension: append
// throughput, restore from snapshot vs from genesis, and reclaimed
// bytes after a truncating deletion run.
func measureStorageDimension(n int) ([]StorageResult, float64, error) {
	appendN := n / 4
	if appendN < 64 {
		appendN = 64
	}
	out, err := measureAppendDimension(appendN)
	if err != nil {
		return nil, 0, err
	}

	// Restore: the same write+delete workload on a retention-bounded
	// chain (segment store keeps only the live suffix; restore starts
	// at the snapshot checkpoint) vs an unbounded chain (restore
	// replays the full history from genesis).
	reg := identity.NewRegistry()
	kp := identity.Deterministic("storage-restore", "seldel-storage")
	if err := reg.RegisterKey(kp, identity.RoleUser); err != nil {
		return nil, 0, err
	}
	rounds := n / 4
	if rounds < 96 {
		rounds = 96
	}
	segDir, err := os.MkdirTemp("", "seldel-bench-restore-seg-*")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(segDir)
	segStore, err := segment.Open(segDir, segment.Options{SegmentBytes: 16 << 10})
	if err != nil {
		return nil, 0, err
	}
	peak, err := runRestoreWorkload(reg, kp, segStore, true, rounds)
	if err != nil {
		return nil, 0, err
	}
	final, err := segStore.SizeBytes()
	if err != nil {
		return nil, 0, err
	}
	segsLeft, _ := segStore.SegmentCount()
	liveBlocks := 0
	for _, err := range segStore.Stream() {
		if err != nil {
			return nil, 0, fmt.Errorf("storage reclaim: %w", err)
		}
		liveBlocks++
	}
	out = append(out, StorageResult{
		Op:             "reclaim",
		Store:          "segment",
		Blocks:         liveBlocks,
		BytesBefore:    peak,
		BytesAfter:     final,
		BytesReclaimed: peak - final,
		Segments:       segsLeft,
	})
	snapRestore, err := measureRestore("segment", "snapshot", reg, segStore, true)
	if err != nil {
		return nil, 0, err
	}
	out = append(out, snapRestore)
	if err := segStore.Close(); err != nil {
		return nil, 0, err
	}

	genDir, err := os.MkdirTemp("", "seldel-bench-restore-gen-*")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(genDir)
	genStore, err := segment.Open(genDir, segment.Options{SegmentBytes: 16 << 10})
	if err != nil {
		return nil, 0, err
	}
	if _, err := runRestoreWorkload(reg, kp, genStore, false, rounds); err != nil {
		return nil, 0, err
	}
	genRestore, err := measureRestore("segment", "genesis", reg, genStore, false)
	if err != nil {
		return nil, 0, err
	}
	out = append(out, genRestore)
	if err := genStore.Close(); err != nil {
		return nil, 0, err
	}

	speedup := 0.0
	if snapRestore.Seconds > 0 {
		speedup = genRestore.Seconds / snapRestore.Seconds
	}
	return out, speedup, nil
}

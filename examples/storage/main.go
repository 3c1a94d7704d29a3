// Storage: the segmented persistent store end to end — appends batch
// into bounded segment files, a deletion-driven truncation physically
// retires segments (SizeBytes shrinks), a snapshot checkpoint is
// written at the marker shift, and a restart restores from the
// checkpoint instead of replaying history.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"github.com/seldel/seldel"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	reg := seldel.NewRegistry()
	alice := seldel.DeterministicKey("alice", "storage-example")
	if err := reg.RegisterKey(alice, seldel.RoleUser); err != nil {
		return err
	}

	dir := filepath.Join(os.TempDir(), "seldel-storage-example")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	// Open the segment store explicitly (rather than WithSegmentStore)
	// to keep the handle for SizeBytes/Snapshot observability. Tiny
	// segments so retirement is visible in a short run.
	store, err := seldel.NewSegmentStore(dir, seldel.SegmentOptions{SegmentBytes: 2048})
	if err != nil {
		return err
	}

	opts := []seldel.Option{
		seldel.WithSequenceLength(3),
		seldel.WithMaxSequences(2),
		seldel.WithClock(seldel.NewLogicalClock(0)),
	}
	chain, err := seldel.New(reg, append(opts, seldel.WithStore(store))...)
	if err != nil {
		return err
	}
	defer chain.Close()

	// Write-and-delete rounds: deletion is what keeps the live chain —
	// and therefore the store — bounded. The deletion receipts carry
	// the mark outcome directly; no IsMarked polling.
	ctx := context.Background()
	var peak int64
	for i := 0; i < 30; i++ {
		entry := seldel.NewData("alice", []byte(fmt.Sprintf("measurement #%02d", i))).Sign(alice)
		sealed, err := chain.SubmitWait(ctx, entry)
		if err != nil {
			return err
		}
		del, err := chain.SubmitWait(ctx,
			seldel.NewDeletion("alice", sealed[0].Ref).Sign(alice))
		if err != nil {
			return err
		}
		if del[0].Mark.String() != "approved" {
			return fmt.Errorf("deletion of %s not approved: %v", sealed[0].Ref, del[0].Mark)
		}
		if err := chain.CompactWait(ctx); err != nil {
			return err
		}
		if sz, err := store.SizeBytes(); err == nil && sz > peak {
			peak = sz
		}
	}
	size, err := store.SizeBytes()
	if err != nil {
		return err
	}
	segments, err := store.SegmentCount()
	if err != nil {
		return err
	}
	fmt.Printf("after 30 write+delete rounds:\n")
	fmt.Printf("  marker          = %d (genesis shifted)\n", chain.Marker())
	fmt.Printf("  store size      = %d bytes in %d segment files (peak was %d — deletion reclaimed bytes)\n",
		size, segments, peak)

	snap, ok, err := store.Snapshot()
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("no snapshot checkpoint after truncation")
	}
	fmt.Printf("  snapshot        = marker %d, head %d, checkpoint block kind %s\n",
		snap.Marker, snap.Head, snap.Checkpoint.Header.Kind)

	// Restart: reopening the directory restores from the checkpoint —
	// only the live suffix is replayed, however long the chain lived.
	// These are the blocks this process wrote, so the reopen checks their
	// bytes (checksums, Merkle roots, hash links, timestamps), not the
	// owners' signatures.
	headHash := chain.HeadHash()
	if err := chain.Close(); err != nil {
		return err
	}
	if err := store.Close(); err != nil {
		return err
	}
	reopened, err := seldel.New(reg, append(opts,
		seldel.WithSegmentStore(dir, seldel.SegmentOptions{SegmentBytes: 2048}))...)
	if err != nil {
		return err
	}
	defer reopened.Close()
	if reopened.HeadHash() != headHash {
		return fmt.Errorf("restored head differs")
	}
	fmt.Printf("\nrestored from snapshot:\n")
	fmt.Printf("  replayed blocks = %d (the live suffix only, not the full history)\n",
		reopened.Stats().AppendedBlocks)
	fmt.Printf("  head            = block %d, marker %d\n",
		reopened.Head().Number, reopened.Marker())
	if err := reopened.VerifyIntegrity(); err != nil {
		return err
	}
	// The signature audit is on demand: run it when the directory was
	// out of the node's hands between Close and New.
	if err := reopened.VerifySignatures(); err != nil {
		return err
	}
	fmt.Printf("  audit           = integrity and every live signature verified\n")
	return nil
}

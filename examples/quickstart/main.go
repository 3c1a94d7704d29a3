// Quickstart: create a selective-deletion chain, write entries, delete
// one on request, and watch it disappear physically — including from the
// segment store on disk.
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
	// 1. Participants: every entry is signed; the registry holds keys
	// and roles (§IV-D.1 of the paper).
	reg := seldel.NewRegistry()
	alice := seldel.DeterministicKey("alice", "quickstart")
	if err := reg.RegisterKey(alice, seldel.RoleUser); err != nil {
		return err
	}

	// 2. Persist to disk so physical deletion is observable.
	dir := filepath.Join(os.TempDir(), "seldel-quickstart")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	store, err := seldel.NewSegmentStore(dir, seldel.SegmentOptions{})
	if err != nil {
		return err
	}
	defer store.Close() // after chain.Close below: the handle is ours

	// 3. A chain with a summary block every 3rd block and at most two
	// complete sequences alive (the paper's evaluation configuration),
	// mirrored into the store from genesis.
	chain, err := seldel.New(reg,
		seldel.WithSequenceLength(3),
		seldel.WithMaxSequences(2),
		seldel.WithClock(seldel.NewLogicalClock(0)),
		seldel.WithStore(store),
	)
	if err != nil {
		return err
	}
	defer chain.Close()

	// 4. Write some entries through the submission pipeline; each sealed
	// receipt reports the entry's stable reference.
	ctx := context.Background()
	var secret seldel.Ref
	for i := 0; i < 3; i++ {
		entry := seldel.NewData("alice", []byte(fmt.Sprintf("note #%d", i))).Sign(alice)
		sealed, err := chain.SubmitWait(ctx, entry)
		if err != nil {
			return err
		}
		if i == 1 {
			secret = sealed[0].Ref
		}
	}
	fmt.Println("chain after three notes:")
	_ = chain.Render(os.Stdout, nil)

	// 5. Alice requests deletion of note #1 (she owns it, so the request
	// is approved and the entry is marked).
	del := seldel.NewDeletion("alice", secret).Sign(alice)
	if _, err := chain.SubmitWait(ctx, del); err != nil {
		return err
	}
	fmt.Printf("\ndeletion requested for %s; marked=%v\n", secret, chain.IsMarked(secret))

	// 6. Drive the chain until the mark executes: the entry is not
	// copied into the next merging summary block, its sequence is cut,
	// and the cut blocks are removed from the store.
	for chain.IsMarked(secret) {
		if _, err := chain.AppendEmpty(); err != nil {
			return err
		}
	}
	if _, _, ok := chain.Lookup(secret); ok {
		return fmt.Errorf("entry still resolvable after deletion")
	}
	// Physical cleanup (pruning the store) runs on the background
	// compactor; barrier on it before measuring the directory.
	if err := chain.CompactWait(ctx); err != nil {
		return err
	}
	sizeOnDisk, err := store.SizeBytes()
	if err != nil {
		return err
	}
	stats := chain.Stats()
	fmt.Printf("\nafter the merge cycle:\n")
	fmt.Printf("  marker           = %d (genesis shifted, §IV-C)\n", chain.Marker())
	fmt.Printf("  live blocks      = %d (bounded)\n", stats.LiveBlocks)
	fmt.Printf("  forgotten        = %d (note #1 is physically gone)\n", stats.ForgottenEntries)
	fmt.Printf("  store size       = %d bytes in %s\n", sizeOnDisk, dir)

	fmt.Println("\nfinal chain (note #0 and #2 were carried with original coordinates):")
	_ = chain.Render(os.Stdout, nil)
	return chain.VerifyIntegrity()
}

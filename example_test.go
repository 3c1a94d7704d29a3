package seldel_test

import (
	"context"
	"fmt"

	"github.com/seldel/seldel"
)

// Example shows the life of an entry: submitted through the pipeline,
// deleted on request, physically forgotten after the retention cycle.
func Example() {
	reg := seldel.NewRegistry()
	alice := seldel.DeterministicKey("alice", "example")
	_ = reg.RegisterKey(alice, seldel.RoleUser)

	chain, _ := seldel.New(reg,
		seldel.WithSequenceLength(3), // summary block every 3rd block
		seldel.WithMaxSequences(2),   // keep at most two complete sequences
		seldel.WithClock(seldel.NewLogicalClock(0)),
	)
	defer chain.Close()

	ctx := context.Background()
	sealed, _ := chain.SubmitWait(ctx,
		seldel.NewData("alice", []byte("embarrassing")).Sign(alice),
	)
	ref := sealed[0].Ref
	fmt.Println("written at", ref)

	_, _ = chain.SubmitWait(ctx,
		seldel.NewDeletion("alice", ref).Sign(alice),
	)
	fmt.Println("marked:", chain.IsMarked(ref))

	for chain.IsMarked(ref) {
		_, _ = chain.AppendEmpty()
	}
	_, _, found := chain.Lookup(ref)
	fmt.Println("found after retention cycle:", found)
	fmt.Println("forgotten entries:", chain.Stats().ForgottenEntries)
	// Output:
	// written at 1/0
	// marked: true
	// found after retention cycle: false
	// forgotten entries: 1
}

// ExampleChain_Submit shows the concurrent write path: receipts resolve
// to the entries' final coordinates once their shared block is sealed.
func ExampleChain_Submit() {
	reg := seldel.NewRegistry()
	alice := seldel.DeterministicKey("alice", "example")
	_ = reg.RegisterKey(alice, seldel.RoleUser)
	chain, _ := seldel.New(reg, seldel.WithClock(seldel.NewLogicalClock(0)))
	defer chain.Close()

	ctx := context.Background()
	receipts, _ := chain.Submit(ctx,
		seldel.NewData("alice", []byte("first")).Sign(alice),
		seldel.NewData("alice", []byte("second")).Sign(alice),
	)
	// Entries of one Submit call always seal in the same block.
	for _, r := range receipts {
		sealed, _ := r.Wait(ctx)
		fmt.Println("sealed at", sealed.Ref)
	}
	// Output:
	// sealed at 1/0
	// sealed at 1/1
}

// ExampleChain_EntriesSeq streams the live chain without copying it.
func ExampleChain_EntriesSeq() {
	reg := seldel.NewRegistry()
	alice := seldel.DeterministicKey("alice", "example")
	_ = reg.RegisterKey(alice, seldel.RoleUser)
	chain, _ := seldel.New(reg, seldel.WithClock(seldel.NewLogicalClock(0)))
	defer chain.Close()

	ctx := context.Background()
	for _, payload := range []string{"a", "b", "c"} {
		_, _ = chain.SubmitWait(ctx, seldel.NewData("alice", []byte(payload)).Sign(alice))
	}
	for ref, entry := range chain.EntriesSeq() {
		fmt.Printf("%s: %s\n", ref, entry.Payload)
	}
	// Output:
	// 1/0: a
	// 3/0: b
	// 4/0: c
}

// ExampleNewTemporary shows self-cleaning retention (§IV-D.4): the entry
// expires at block 4 and is dropped at the next summarization.
func ExampleNewTemporary() {
	reg := seldel.NewRegistry()
	logger := seldel.DeterministicKey("logger", "example")
	_ = reg.RegisterKey(logger, seldel.RoleUser)
	chain, _ := seldel.New(reg,
		seldel.WithSequenceLength(3),
		seldel.WithMaxSequences(1),
		seldel.WithShrink(seldel.ShrinkMinimal),
		seldel.WithClock(seldel.NewLogicalClock(0)),
	)
	defer chain.Close()

	entry := seldel.NewTemporary("logger", []byte("debug line"), 0, 4).Sign(logger)
	sealed, _ := chain.SubmitWait(context.Background(), entry)
	ref := sealed[0].Ref

	for i := 0; i < 8; i++ {
		_, _ = chain.AppendEmpty()
	}
	_, _, found := chain.Lookup(ref)
	fmt.Println("expired entry still on chain:", found)
	fmt.Println("expired counter:", chain.Stats().ExpiredEntries)
	// Output:
	// expired entry still on chain: false
	// expired counter: 1
}

// ExampleChain_Lookup shows that entry references survive migration into
// summary blocks: the same (block, entry) address keeps resolving.
func ExampleChain_Lookup() {
	reg := seldel.NewRegistry()
	alice := seldel.DeterministicKey("alice", "example")
	_ = reg.RegisterKey(alice, seldel.RoleUser)
	chain, _ := seldel.New(reg,
		seldel.WithSequenceLength(3),
		seldel.WithMaxSequences(1),
		seldel.WithShrink(seldel.ShrinkMinimal),
		seldel.WithClock(seldel.NewLogicalClock(0)),
	)
	defer chain.Close()

	sealed, _ := chain.SubmitWait(context.Background(),
		seldel.NewData("alice", []byte("durable")).Sign(alice),
	)
	ref := sealed[0].Ref

	for i := 0; i < 6; i++ {
		_, _ = chain.AppendEmpty()
	}
	entry, loc, _ := chain.Lookup(ref)
	fmt.Printf("payload=%s carried=%v origin=%s\n", entry.Payload, loc.Carried, ref)
	// Output:
	// payload=durable carried=true origin=1/0
}

// ExampleNewAuditLogger runs the paper's §V logging use case.
func ExampleNewAuditLogger() {
	reg := seldel.NewRegistry()
	alpha := seldel.DeterministicKey("ALPHA", "example")
	_ = reg.RegisterKey(alpha, seldel.RoleUser)
	chain, _ := seldel.New(reg,
		seldel.WithSequenceLength(3),
		seldel.WithMaxSequences(2),
		seldel.WithClock(seldel.NewLogicalClock(0)),
	)
	defer chain.Close()
	logger := seldel.NewAuditLogger(chain)

	ref, _ := logger.Log(alpha, seldel.LoginEvent{
		User: "ALPHA", Terminal: "tty1", Success: true, At: 7,
	})
	hits, _ := logger.Query(seldel.AuditQuery{User: "ALPHA"})
	fmt.Println("logged at", ref, "- events on record:", len(hits))
	fmt.Println("authentic:", logger.VerifyAuthenticity(ref) == nil)
	// Output:
	// logged at 1/0 - events on record: 1
	// authentic: true
}

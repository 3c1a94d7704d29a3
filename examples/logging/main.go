// Logging: the paper's §V evaluation scenario as an application — a
// tamper-evident login audit trail with GDPR-style deletion on request
// and automatic retention limits.
//
// The paper's prototype declared this entry "beforehand by a YAML
// schema" (§V). That schema was the prototype's application layer, not
// part of the deletion mechanism, which is "independent of a specific
// block structure"; here a fixed four-field encoding replaces it.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"github.com/seldel/seldel"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	reg := seldel.NewRegistry()
	keys := make(map[string]*seldel.KeyPair)
	for _, name := range []string{"ALPHA", "BRAVO", "CHARLIE"} {
		kp := seldel.DeterministicKey(name, "logging-example")
		if err := reg.RegisterKey(kp, seldel.RoleUser); err != nil {
			return err
		}
		keys[name] = kp
	}
	chain, err := seldel.New(reg,
		seldel.WithSequenceLength(3),
		seldel.WithMaxSequences(2),
		seldel.WithShrink(seldel.ShrinkAllButNewest),
		seldel.WithClock(seldel.NewLogicalClock(0)),
	)
	if err != nil {
		return err
	}
	defer chain.Close()
	logger := seldel.NewAuditLogger(chain)
	fmt.Println("login-event fields (one fixed encoding):")
	fmt.Println("  at         timestamp")
	fmt.Println("  success    bool")
	fmt.Println("  terminal   string     at most 64 bytes")
	fmt.Println("  user       string     at most 64 bytes")

	// Log logins: ALPHA and CHARLIE successful, BRAVO once failed.
	logins := []seldel.LoginEvent{
		{User: "ALPHA", Terminal: "tty1", Success: true, At: 1},
		{User: "BRAVO", Terminal: "tty1", Success: false, At: 2},
		{User: "BRAVO", Terminal: "tty1", Success: true, At: 3},
		{User: "CHARLIE", Terminal: "tty2", Success: true, At: 4},
	}
	var bravoRef seldel.Ref
	for _, ev := range logins {
		ref, err := logger.Log(keys[ev.User], ev)
		if err != nil {
			return err
		}
		if ev.User == "BRAVO" && ev.Success {
			bravoRef = ref
		}
		fmt.Printf("logged %-28s -> %s\n", ev.String(), ref)
	}

	// Audit queries.
	failed, err := logger.Query(seldel.AuditQuery{FailedOnly: true})
	if err != nil {
		return err
	}
	fmt.Printf("\nfailed logins on record: %d\n", len(failed))
	for _, hit := range failed {
		fmt.Printf("  %s at ref %s (authentic: %v)\n",
			hit.Event.String(), hit.Ref, logger.VerifyAuthenticity(hit.Ref) == nil)
	}

	// BRAVO exercises the right to erasure for its successful login.
	del := seldel.NewDeletion("BRAVO", bravoRef).Sign(keys["BRAVO"])
	if err := chain.CheckDeletionRequest(del); err != nil {
		return fmt.Errorf("eager validation: %w", err)
	}
	if _, err := chain.SubmitWait(context.Background(), del); err != nil {
		return err
	}
	fmt.Printf("\nBRAVO requested erasure of %s (marked=%v)\n", bravoRef, chain.IsMarked(bravoRef))

	// CHARLIE cannot delete ALPHA's entry — rejected eagerly, and even
	// if included on-chain it has no effect (§V).
	foreign := seldel.NewDeletion("CHARLIE", seldel.Ref{Block: 1, Entry: 0}).Sign(keys["CHARLIE"])
	fmt.Printf("CHARLIE deleting ALPHA's login: %v\n", chain.CheckDeletionRequest(foreign))

	// Drive until BRAVO's entry is physically forgotten.
	for chain.IsMarked(bravoRef) {
		if _, err := chain.AppendEmpty(); err != nil {
			return err
		}
	}
	bravoHits, err := logger.Query(seldel.AuditQuery{User: "BRAVO"})
	if err != nil {
		return err
	}
	fmt.Printf("\nafter retention cycle: BRAVO events on record = %d ", len(bravoHits))
	fmt.Println("(the failed attempt remains; the erased login is gone)")

	fmt.Println("\nfinal chain state:")
	if err := chain.Render(os.Stdout, seldel.AuditRenderOptions()); err != nil {
		return err
	}
	st := chain.Stats()
	fmt.Printf("stats: forgotten=%d rejected=%d live=%d marker=%d\n",
		st.ForgottenEntries, st.RejectedRequests, st.LiveBlocks, chain.Marker())
	return nil
}

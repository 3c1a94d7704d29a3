package chain

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/deletion"
	"github.com/seldel/seldel/internal/verify"
)

// TestDeletionStormRace is the acceptance test for the asynchronous
// deletion lifecycle: 16 producers concurrently submit data entries,
// plain deletion requests, and co-signed deletion requests for entries
// with dependents, on a retention-bounded chain whose background
// compactor truncates behind the appends. Run with -race. The dedicated
// verification pool's counters prove the co-signatures were verified
// through the pool (i.e. outside Chain.mu — the under-lock path,
// ValidateRequestPrechecked, performs no signature checks, which
// TestPrecheckedValidationSkipsSignatures pins separately).
func TestDeletionStormRace(t *testing.T) {
	users := make([]string, 16)
	for i := range users {
		users[i] = fmt.Sprintf("storm-%d", i)
	}
	env := newEnv(t, users...)
	pool := verify.New(verify.Options{})
	defer pool.Close()
	cfg := Config{
		SequenceLength: 4,
		MaxBlocks:      16,
		Shrink:         ShrinkMinimal,
		Registry:       env.registry,
		Clock:          defaultConfig(env).Clock,
		Verifier:       pool,
	}
	c := newChain(t, cfg)
	defer c.Close()

	ctx := context.Background()
	const perProducer = 24
	var (
		wg   sync.WaitGroup
		errs = make(chan error, len(users))
	)
	for w := range users {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			me := users[w]
			peer := users[(w+1)%len(users)]
			for i := 0; i < perProducer; i++ {
				// Write a victim, then a dependent owned by a peer, then
				// request deletion with the peer's co-signature — the full
				// §IV-D pipeline under contention. Every third round skips
				// the dependent to also exercise the plain path.
				sealed, err := c.SubmitWait(ctx, env.data(me, fmt.Sprintf("v-%d-%d", w, i)))
				if err != nil {
					errs <- err
					return
				}
				victim := sealed[0].Ref
				req := block.NewDeletion(me, victim)
				if i%3 != 0 {
					if _, err := c.SubmitWait(ctx,
						block.NewData(peer, []byte(fmt.Sprintf("dep-%d-%d", w, i))).
							WithDependsOn(victim).Sign(env.keys[peer])); err != nil {
						// The victim's block may already have been cut or the
						// victim marked by an unrelated race — both surface as
						// per-entry validation errors, which are expected here.
						continue
					}
					req.AddCoSignature(env.keys[peer])
				}
				if _, err := c.Submit(ctx, req.Sign(env.keys[me])); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.CompactWait(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyIntegrity(); err != nil {
		t.Fatalf("integrity after storm: %v", err)
	}
	st := c.Stats()
	if st.CutBlocks == 0 {
		t.Error("bounded chain never truncated under the storm")
	}
	if st.ForgottenEntries == 0 {
		t.Error("no entry was physically forgotten")
	}
	ps := c.PipelineStats()
	if ps.Compaction.Truncations == 0 || ps.Compaction.BlocksCompacted == 0 {
		t.Errorf("compactor executed nothing: %+v", ps.Compaction)
	}
	if ps.Compaction.Pending != 0 {
		t.Errorf("compactor still pending after Close: %+v", ps.Compaction)
	}
	// Co-signature checks must have flowed through the pool: the chain
	// has a dedicated pool, and only entry signatures + co-signatures
	// route through it. More verifications than entries submitted proves
	// the co-signature share.
	entriesSubmitted := ps.Entries + ps.Rejected
	if got := ps.Verify.Verified + ps.Verify.CacheHits; got <= entriesSubmitted {
		t.Errorf("pool answered %d checks for %d entries: co-signatures did not route through the pool", got, entriesSubmitted)
	}
}

// TestPrecheckedValidationSkipsSignatures pins the lock-safety contract
// of the under-lock half of deletion authorization: given precomputed
// co-signature verdicts, ValidateRequestPrechecked must not verify any
// signature itself. A request whose attached co-signature bytes are
// garbage still passes when the precheck vouches for the co-signer —
// and is rejected when it does not — so a call site holding Chain.mu
// cannot be paying Ed25519 costs there.
func TestPrecheckedValidationSkipsSignatures(t *testing.T) {
	env := newEnv(t, "ALPHA", "BRAVO")
	auth := deletion.NewAuthorizer(env.registry, deletion.PolicyRoleBased)
	target := env.data("ALPHA", "victim")
	targetRef := block.Ref{Block: 1, Entry: 0}
	deps := []deletion.Dependent{{Ref: block.Ref{Block: 2, Entry: 0}, Owner: "BRAVO"}}

	req := block.NewDeletion("ALPHA", targetRef)
	req.CoSigners = []block.CoSignature{{Name: "BRAVO", Signature: []byte("garbage")}}
	req.Sign(env.keys["ALPHA"])

	// Vouched precheck: passes without touching the garbage bytes.
	pre := deletion.CoSigCheck{Approved: map[string]bool{"BRAVO": true}}
	if err := auth.ValidateRequestPrechecked(req, target, deps, pre); err != nil {
		t.Errorf("vouched precheck rejected: %v", err)
	}
	// Zero precheck fails closed: the dependent's owner is missing.
	if err := auth.ValidateRequestPrechecked(req, target, deps, deletion.CoSigCheck{}); err == nil {
		t.Error("zero precheck accepted a co-signed dependent")
	}
	// A real precheck over the garbage signature reports the bad signer.
	pool := verify.New(verify.Options{})
	defer pool.Close()
	real := deletion.PrecheckRequest(pool, env.registry, req)
	if real.BadSigner != "BRAVO" {
		t.Errorf("BadSigner = %q, want BRAVO", real.BadSigner)
	}
}

// TestLedgerExpiryHeapAfterTruncate drives temporaries through a
// truncation and checks the expiry-heap bookkeeping: dead deadlines are
// dropped lazily from the tops, live deadlines stay, and expiryPossible
// keeps answering correctly for the candidates that remain.
func TestLedgerExpiryHeapAfterTruncate(t *testing.T) {
	env := newEnv(t, "alpha")
	cfg := defaultConfig(env) // l=3, MaxSequences=2
	cfg.Shrink = ShrinkMinimal
	c := newChain(t, cfg)

	// One short-lived temporary (expires inside the first retention
	// window), one long-lived one, and durable filler.
	mustSeal(t, c, env.temp("alpha", "short", 0, 4))
	mustSeal(t, c, env.temp("alpha", "long", 0, 1000))
	for i := 0; i < 8; i++ {
		mustSeal(t, c, env.data("alpha", fmt.Sprintf("fill-%d", i)))
	}
	if c.Stats().CutBlocks == 0 {
		t.Fatal("precondition: chain never truncated")
	}
	if c.Stats().ExpiredEntries == 0 {
		t.Fatal("short temporary never expired")
	}

	c.mu.RLock()
	defer c.mu.RUnlock()
	// Heap tops must reference live ledger candidates only (prune's
	// lazy cleanup guarantees the TOP is live; deeper items may be dead
	// but must never make expiryPossible falsely negative).
	for _, h := range []*deadlineHeap{&c.ledger.expireTime, &c.ledger.expireBlock} {
		if h.Len() == 0 {
			continue
		}
		if _, alive := c.ledger.byRef[(*h)[0].ref]; !alive {
			t.Errorf("heap top %v references a pruned candidate", (*h)[0])
		}
	}
	// The long temporary is still pending, so a block number past its
	// deadline must report expiry possible, and the current head must
	// not.
	if !c.ledger.expiryPossible(0, 1001) {
		t.Error("pending long deadline invisible to expiryPossible")
	}
	if c.ledger.expiryPossible(0, c.head().Header.Number+1) {
		t.Error("expiryPossible true with no deadline due — stale heap item survived pruning")
	}
}

// TestMarkOnCarriedEntry lands a deletion mark on an entry that already
// migrated into a summary block: the ledger candidate must flip to
// marked, the next summary must leave the entry out, and the following
// cut must count it as forgotten.
func TestMarkOnCarriedEntry(t *testing.T) {
	env := newEnv(t, "alpha")
	cfg := defaultConfig(env) // l=3, MaxSequences=2, ShrinkAllButNewest
	c := newChain(t, cfg)

	sealed := mustSeal(t, c, env.data("alpha", "victim"))
	victim := block.Ref{Block: sealed[0].Header.Number, Entry: 0}
	// Drive until the victim is carried inside a summary block.
	for i := 0; ; i++ {
		if _, loc, ok := c.Lookup(victim); ok && loc.Carried {
			break
		}
		if i > 64 {
			t.Fatal("victim never migrated into a summary")
		}
		mustSeal(t, c, env.data("alpha", fmt.Sprintf("fill-%d", i)))
	}
	mustSeal(t, c, env.del("alpha", victim))
	if !c.IsMarked(victim) {
		t.Fatal("mark on carried entry not recorded")
	}
	c.mu.RLock()
	cand, ok := c.ledger.byRef[victim]
	if !ok || !cand.marked {
		t.Errorf("ledger candidate not marked (ok=%v)", ok)
	}
	c.mu.RUnlock()
	// Every future summary must exclude the marked carried entry, and
	// the cut that drops its holder must count it forgotten.
	for i := 0; c.Stats().ForgottenEntries == 0; i++ {
		if i > 128 {
			t.Fatal("marked carried entry never physically forgotten")
		}
		blocks := mustSeal(t, c, env.data("alpha", fmt.Sprintf("drive-%d", i)))
		for _, b := range blocks {
			if !b.IsSummary() {
				continue
			}
			for _, ce := range b.Carried {
				if ce.Ref() == victim {
					t.Fatal("marked entry carried forward into a summary")
				}
			}
		}
	}
	if _, _, ok := c.Lookup(victim); ok {
		t.Error("forgotten entry still resolvable")
	}
}

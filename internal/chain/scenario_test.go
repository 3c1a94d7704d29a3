package chain

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/deletion"
	"github.com/seldel/seldel/internal/simclock"
)

// paperScenario drives the evaluation scenario of §V: logins by ALPHA,
// BRAVO, CHARLIE with a summary block every third block, BRAVO's deletion
// request for block 3 / entry 1 in block 6.
//
// Block layout (l = 3, summaries at 2, 5, 8, …):
//
//	0  genesis
//	1  ALPHA login            (entry 1/0)
//	Σ2 (empty)
//	3  ALPHA, BRAVO logins    (entries 3/0, 3/1)
//	4  CHARLIE login          (entry 4/0)
//	Σ5 (empty)
//	6  BRAVO's deletion request for 3/1
//	7  ALPHA login
//	Σ8 merges sequences 0 and 1 → marker shifts to 6 (Fig. 7)
func paperScenario(t *testing.T) (*Chain, *testEnv) {
	t.Helper()
	env := newEnv(t, "ALPHA", "BRAVO", "CHARLIE")
	cfg := Config{
		SequenceLength: 3,
		MaxSequences:   2,
		Shrink:         ShrinkAllButNewest,
		Registry:       env.registry,
		Clock:          simclock.NewLogical(0),
	}
	return newChain(t, cfg), env
}

func TestFigure6StateAfterThreeLogins(t *testing.T) {
	c, env := paperScenario(t)
	mustSeal(t, c, env.data("ALPHA", "login ALPHA tty1"))
	mustSeal(t, c, env.data("ALPHA", "login ALPHA tty2"), env.data("BRAVO", "login BRAVO tty1"))
	mustSeal(t, c, env.data("CHARLIE", "login CHARLIE tty1"))

	// Chain is 0,1,Σ2,3,4,Σ5 — marker still at genesis, nothing deleted.
	if got := c.Len(); got != 6 {
		t.Fatalf("Len = %d, want 6", got)
	}
	if c.Marker() != 0 {
		t.Errorf("Marker = %d, want 0", c.Marker())
	}
	blocks := c.Blocks()
	for _, num := range []int{2, 5} {
		if !blocks[num].IsSummary() {
			t.Errorf("block %d is not a summary", num)
		}
		if len(blocks[num].Carried) != 0 {
			t.Errorf("summary %d is not empty: %d carried (Fig. 6: first two summaries empty)",
				num, len(blocks[num].Carried))
		}
	}
	out := renderString(c, nil)
	for _, want := range []string{"m -> 0", "DEADB", "S2;", "S5;", "login BRAVO tty1", "K CHARLIE"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
}

func TestFigure7DeletionAndMerge(t *testing.T) {
	c, env := paperScenario(t)
	mustSeal(t, c, env.data("ALPHA", "login ALPHA tty1"))
	mustSeal(t, c, env.data("ALPHA", "login ALPHA tty2"), env.data("BRAVO", "login BRAVO tty1"))
	mustSeal(t, c, env.data("CHARLIE", "login CHARLIE tty1"))

	// Block 6: BRAVO requests deletion of its entry at 3/1.
	target := block.Ref{Block: 3, Entry: 1}
	mustSeal(t, c, env.del("BRAVO", target))
	if !c.IsMarked(target) {
		t.Fatal("deletion request was not approved")
	}
	// Block 7 completes sequence 2; Σ8 merges sequences 0 and 1.
	mustSeal(t, c, env.data("ALPHA", "login ALPHA tty3"))

	if got := c.Marker(); got != 6 {
		t.Fatalf("Marker = %d, want 6 (Fig. 7: marker changed to block 6)", got)
	}
	// All information before block 6 is deleted.
	if c.Len() != 3 {
		t.Errorf("Len = %d, want 3 (blocks 6, 7, Σ8)", c.Len())
	}
	if _, ok := c.Block(5); ok {
		t.Error("block 5 still present after cut")
	}
	// The summary block must carry the surviving entries with original
	// coordinates, but NOT the deleted 3/1.
	head := c.Blocks()[c.Len()-1]
	if !head.IsSummary() || head.Header.Number != 8 {
		t.Fatalf("head is %s %d", head.Header.Kind, head.Header.Number)
	}
	carriedRefs := make(map[block.Ref]bool)
	for _, ce := range head.Carried {
		carriedRefs[ce.Ref()] = true
	}
	for _, want := range []block.Ref{{Block: 1, Entry: 0}, {Block: 3, Entry: 0}, {Block: 4, Entry: 0}} {
		if !carriedRefs[want] {
			t.Errorf("summary lost surviving entry %s", want)
		}
	}
	if carriedRefs[target] {
		t.Error("deleted entry 3/1 was copied into the summary (must be forgotten)")
	}
	// The deleted entry is physically gone; survivors resolve via the
	// summary block.
	if _, _, ok := c.Lookup(target); ok {
		t.Error("deleted entry still resolvable")
	}
	e, loc, ok := c.Lookup(block.Ref{Block: 3, Entry: 0})
	if !ok || !loc.Carried || loc.Block != 8 {
		t.Errorf("surviving entry: ok=%v loc=%+v", ok, loc)
	}
	if ok && e.Owner != "ALPHA" {
		t.Errorf("surviving entry owner = %q", e.Owner)
	}
	// The mark has been executed.
	if c.IsMarked(target) {
		t.Error("mark still active after physical deletion")
	}
	if got := c.Stats().ForgottenEntries; got != 1 {
		t.Errorf("ForgottenEntries = %d, want 1", got)
	}
	if err := c.VerifyIntegrity(); err != nil {
		t.Errorf("VerifyIntegrity: %v", err)
	}
}

func TestFigure8DeletionRequestNeverCarried(t *testing.T) {
	c, env := paperScenario(t)
	mustSeal(t, c, env.data("ALPHA", "login ALPHA tty1"))
	mustSeal(t, c, env.data("ALPHA", "login ALPHA tty2"), env.data("BRAVO", "login BRAVO tty1"))
	mustSeal(t, c, env.data("CHARLIE", "login CHARLIE tty1"))
	mustSeal(t, c, env.del("BRAVO", block.Ref{Block: 3, Entry: 1}))
	mustSeal(t, c, env.data("ALPHA", "login ALPHA tty3"))
	// One cycle ahead (Fig. 8): drive to the next merge, which cuts the
	// sequence holding the deletion request (block 6).
	mustSeal(t, c, env.data("ALPHA", "login ALPHA tty4"))     // block 9
	mustSeal(t, c, env.data("BRAVO", "login BRAVO tty2"))     // block 10 + Σ11
	mustSeal(t, c, env.data("CHARLIE", "login CHARLIE tty2")) // block 12
	mustSeal(t, c, env.data("ALPHA", "login ALPHA tty5"))     // block 13 + Σ14: merge

	if got := c.Marker(); got != 12 {
		t.Fatalf("Marker = %d, want 12 after second merge cycle", got)
	}
	// No live block may contain a deletion entry or carry one.
	for _, b := range c.Blocks() {
		for _, e := range b.Entries {
			if e.Kind == block.KindDeletion {
				t.Errorf("block %d still holds a deletion entry", b.Header.Number)
			}
		}
		for _, ce := range b.Carried {
			if ce.Entry.Kind == block.KindDeletion {
				t.Errorf("summary %d carries a deletion entry (never transferred, §V)", b.Header.Number)
			}
		}
	}
	// Survivors from the first merge must still be alive, re-carried.
	if _, loc, ok := c.Lookup(block.Ref{Block: 3, Entry: 0}); !ok || !loc.Carried {
		t.Errorf("entry 3/0 lost after second merge (loc=%+v ok=%v)", loc, ok)
	}
	// The deleted entry stays deleted.
	if _, _, ok := c.Lookup(block.Ref{Block: 3, Entry: 1}); ok {
		t.Error("deleted entry reappeared")
	}
	if err := c.VerifyIntegrity(); err != nil {
		t.Errorf("VerifyIntegrity: %v", err)
	}
}

func TestWrongDeletionRequestsHaveNoEffect(t *testing.T) {
	// §V: "wrong request of deletions can be included in the blockchain,
	// but these have no further effects."
	c, env := paperScenario(t)
	mustSeal(t, c, env.data("ALPHA", "login ALPHA tty1"))

	tests := []struct {
		name string
		req  *block.Entry
	}{
		{"foreign owner", env.del("BRAVO", block.Ref{Block: 1, Entry: 0})},
		{"missing target", env.del("ALPHA", block.Ref{Block: 42, Entry: 7})},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			before := c.Stats().RejectedRequests
			if _, _, err := c.commit([]*block.Entry{tt.req}); err != nil {
				t.Fatalf("request not included: %v", err)
			}
			if c.IsMarked(block.Ref{Block: 1, Entry: 0}) {
				t.Error("invalid request created a mark")
			}
			if got := c.Stats().RejectedRequests; got != before+1 {
				t.Errorf("RejectedRequests = %d, want %d", got, before+1)
			}
		})
	}
	// The target entry must survive all merges.
	for i := 0; i < 8; i++ {
		mustSeal(t, c, env.data("CHARLIE", fmt.Sprintf("noise %d", i)))
	}
	if _, _, ok := c.Lookup(block.Ref{Block: 1, Entry: 0}); !ok {
		t.Error("entry was deleted despite only invalid requests")
	}
}

func TestAdminMayDeleteForeignEntries(t *testing.T) {
	env := newEnv(t, "ALPHA", "admin")
	c := newChain(t, defaultConfig(env))
	mustSeal(t, c, env.data("ALPHA", "private"))
	mustSeal(t, c, env.del("admin", block.Ref{Block: 1, Entry: 0}))
	if !c.IsMarked(block.Ref{Block: 1, Entry: 0}) {
		t.Error("admin deletion request rejected")
	}
}

func TestOwnerOnlyPolicyBlocksAdmin(t *testing.T) {
	env := newEnv(t, "ALPHA", "admin")
	cfg := defaultConfig(env)
	cfg.DeletionPolicy = deletion.PolicyOwnerOnly
	c := newChain(t, cfg)
	mustSeal(t, c, env.data("ALPHA", "private"))
	mustSeal(t, c, env.del("admin", block.Ref{Block: 1, Entry: 0}))
	if c.IsMarked(block.Ref{Block: 1, Entry: 0}) {
		t.Error("owner-only policy allowed admin deletion")
	}
}

func TestShrinkMinimalEquationOne(t *testing.T) {
	// Eq. 1: lβnew = lβold − lω1, iterated until lβ ≤ lmax.
	env := newEnv(t, "alpha")
	cfg := Config{
		SequenceLength: 3,
		MaxBlocks:      6,
		Shrink:         ShrinkMinimal,
		Registry:       env.registry,
		Clock:          simclock.NewLogical(0),
	}
	c := newChain(t, cfg)
	merges := 0
	for i := 0; i < 30; i++ {
		blocks := mustSeal(t, c, env.data("alpha", fmt.Sprintf("e%d", i)))
		// Retention is enforced at summary creation; between summaries
		// the live length may overshoot by up to l-1 blocks.
		if got := c.Len(); got > 6+2 {
			t.Fatalf("live length %d exceeds lmax+l-1 after block %d", got, i)
		}
		if len(blocks) == 2 { // a summary block was just created
			if got := c.Len(); got > 6 {
				t.Fatalf("live length %d exceeds lmax 6 right after summary %d",
					got, blocks[1].Header.Number)
			}
			if c.Len() == 6 {
				merges++
			}
		}
		if c.Marker()%3 != 0 {
			t.Fatalf("marker %d not sequence-aligned", c.Marker())
		}
	}
	if err := c.VerifyIntegrity(); err != nil {
		t.Errorf("VerifyIntegrity: %v", err)
	}
	// ShrinkMinimal trims to exactly lmax live blocks at each merge.
	if merges == 0 {
		t.Error("no merge cycle trimmed the chain to lmax")
	}
}

func TestMinBlocksFloor(t *testing.T) {
	env := newEnv(t, "alpha")
	cfg := Config{
		SequenceLength: 3,
		MaxBlocks:      3,
		MinBlocks:      9, // floor dominates the (smaller) MaxBlocks limit
		Shrink:         ShrinkMinimal,
		Registry:       env.registry,
		Clock:          simclock.NewLogical(0),
	}
	c := newChain(t, cfg)
	prevMarker := c.Marker()
	merged := false
	for i := 0; i < 12; i++ {
		mustSeal(t, c, env.data("alpha", fmt.Sprintf("e%d", i)))
		if m := c.Marker(); m != prevMarker {
			merged = true
			prevMarker = m
			// Right after any merge, the floor must hold even though
			// MaxBlocks alone would demand a much shorter chain.
			if got := c.Len(); got < 9 {
				t.Fatalf("Len = %d < MinBlocks 9 after merge to marker %d", got, m)
			}
		}
	}
	if !merged {
		t.Error("no merge happened; floor test exercised nothing")
	}
}

func TestMinTimeSpanFloor(t *testing.T) {
	env := newEnv(t, "alpha")
	cfg := Config{
		SequenceLength: 3,
		MaxBlocks:      3,
		MinTimeSpan:    1 << 40, // impossible to cover: never shrink
		Shrink:         ShrinkMinimal,
		Registry:       env.registry,
		Clock:          simclock.NewLogical(0),
	}
	c := newChain(t, cfg)
	for i := 0; i < 10; i++ {
		mustSeal(t, c, env.data("alpha", fmt.Sprintf("e%d", i)))
	}
	if c.Marker() != 0 {
		t.Errorf("marker moved to %d although MinTimeSpan floor binds", c.Marker())
	}
}

func TestTemporaryEntriesExpireAtSummarization(t *testing.T) {
	env := newEnv(t, "alpha")
	cfg := Config{
		SequenceLength: 3,
		MaxSequences:   1,
		Shrink:         ShrinkMinimal,
		Registry:       env.registry,
		Clock:          simclock.NewLogical(0),
	}
	c := newChain(t, cfg)
	// Temporary entry expiring at block 4 — it will be expired when the
	// merge at Σ5 happens; a durable entry in the same block survives.
	mustSeal(t, c, env.temp("alpha", "ephemeral", 0, 4), env.data("alpha", "durable"))
	for i := 0; i < 3; i++ {
		mustSeal(t, c, env.data("alpha", fmt.Sprintf("n%d", i)))
	}
	if _, _, ok := c.Lookup(block.Ref{Block: 1, Entry: 0}); ok {
		t.Error("expired temporary entry survived summarization (§IV-D.4)")
	}
	if _, _, ok := c.Lookup(block.Ref{Block: 1, Entry: 1}); !ok {
		t.Error("durable entry was lost")
	}
	if got := c.Stats().ExpiredEntries; got == 0 {
		t.Error("ExpiredEntries not counted")
	}
}

func TestTemporaryEntryByTimestamp(t *testing.T) {
	env := newEnv(t, "alpha")
	cfg := Config{
		SequenceLength: 3,
		MaxSequences:   1,
		Shrink:         ShrinkMinimal,
		Registry:       env.registry,
		Clock:          simclock.NewLogical(0),
	}
	c := newChain(t, cfg)
	// Expire at logical time 2 (the clock ticks once per block).
	mustSeal(t, c, env.temp("alpha", "by-time", 2, 0))
	for i := 0; i < 3; i++ {
		mustSeal(t, c, env.data("alpha", fmt.Sprintf("n%d", i)))
	}
	if _, _, ok := c.Lookup(block.Ref{Block: 1, Entry: 0}); ok {
		t.Error("time-expired entry survived")
	}
}

func TestUnexpiredTemporaryEntryIsCarried(t *testing.T) {
	env := newEnv(t, "alpha")
	cfg := Config{
		SequenceLength: 3,
		MaxSequences:   1,
		Shrink:         ShrinkMinimal,
		Registry:       env.registry,
		Clock:          simclock.NewLogical(0),
	}
	c := newChain(t, cfg)
	mustSeal(t, c, env.temp("alpha", "long-lived", 0, 10_000))
	for i := 0; i < 3; i++ {
		mustSeal(t, c, env.data("alpha", fmt.Sprintf("n%d", i)))
	}
	if _, loc, ok := c.Lookup(block.Ref{Block: 1, Entry: 0}); !ok || !loc.Carried {
		t.Errorf("unexpired temporary entry not carried (ok=%v loc=%+v)", ok, loc)
	}
}

func TestSemanticCohesionRequiresCoSignature(t *testing.T) {
	env := newEnv(t, "ALPHA", "BRAVO")
	c := newChain(t, defaultConfig(env))
	mustSeal(t, c, env.data("ALPHA", "base record"))
	base := block.Ref{Block: 1, Entry: 0}
	// BRAVO appends an entry depending on ALPHA's record.
	depEntry := block.NewData("BRAVO", []byte("follow-up")).WithDependsOn(base).Sign(env.keys["BRAVO"])
	mustSeal(t, c, depEntry)

	// ALPHA's plain deletion request must be rejected (live dependent).
	plain := env.del("ALPHA", base)
	if err := c.CheckDeletionRequest(plain); !errors.Is(err, deletion.ErrMissingCoSign) {
		t.Errorf("err = %v, want ErrMissingCoSign", err)
	}
	mustSeal(t, c, plain)
	if c.IsMarked(base) {
		t.Fatal("deletion approved despite live dependent without co-signature")
	}

	// With BRAVO's co-signature the request passes.
	cosigned := block.NewDeletion("ALPHA", base).AddCoSignature(env.keys["BRAVO"]).Sign(env.keys["ALPHA"])
	if err := c.CheckDeletionRequest(cosigned); err != nil {
		t.Fatalf("co-signed request rejected: %v", err)
	}
	mustSeal(t, c, cosigned)
	if !c.IsMarked(base) {
		t.Error("co-signed deletion not approved")
	}
}

func TestDependingOnMarkedEntryIsRejected(t *testing.T) {
	// §IV-D.3: subsequent transactions based on marked data are no longer
	// permitted.
	env := newEnv(t, "ALPHA")
	c := newChain(t, defaultConfig(env))
	mustSeal(t, c, env.data("ALPHA", "to be deleted"))
	target := block.Ref{Block: 1, Entry: 0}
	mustSeal(t, c, env.del("ALPHA", target))
	if !c.IsMarked(target) {
		t.Fatal("mark not created")
	}
	dep := block.NewData("ALPHA", []byte("late dependent")).WithDependsOn(target).Sign(env.keys["ALPHA"])
	if _, _, err := c.commit([]*block.Entry{dep}); !errors.Is(err, ErrDependsMarked) {
		t.Errorf("err = %v, want ErrDependsMarked", err)
	}
}

func TestDependencyOnMissingEntryRejected(t *testing.T) {
	env := newEnv(t, "ALPHA")
	c := newChain(t, defaultConfig(env))
	dep := block.NewData("ALPHA", []byte("orphan")).WithDependsOn(block.Ref{Block: 9, Entry: 9}).Sign(env.keys["ALPHA"])
	if _, _, err := c.commit([]*block.Entry{dep}); !errors.Is(err, ErrDependsMissing) {
		t.Errorf("err = %v, want ErrDependsMissing", err)
	}
}

func TestDeletionOfCarriedEntry(t *testing.T) {
	// "It may happen that an entry is located in a summary block. This
	// must be taken into account" (§IV-D).
	c, env := paperScenario(t)
	mustSeal(t, c, env.data("ALPHA", "login ALPHA tty1"))
	mustSeal(t, c, env.data("ALPHA", "login ALPHA tty2"), env.data("BRAVO", "login BRAVO tty1"))
	mustSeal(t, c, env.data("CHARLIE", "login CHARLIE tty1"))
	mustSeal(t, c, env.data("ALPHA", "filler"))
	mustSeal(t, c, env.data("ALPHA", "filler2"))
	// Entries 1/0, 3/0, 3/1, 4/0 now live inside summary block 8.
	target := block.Ref{Block: 3, Entry: 1}
	if _, loc, ok := c.Lookup(target); !ok || !loc.Carried {
		t.Fatalf("precondition: target not carried (ok=%v loc=%+v)", ok, loc)
	}
	mustSeal(t, c, env.del("BRAVO", target))
	if !c.IsMarked(target) {
		t.Fatal("deletion of carried entry not approved")
	}
	// Drive to the next merge: the carried entry must not be re-carried.
	for i := 0; i < 6; i++ {
		mustSeal(t, c, env.data("ALPHA", fmt.Sprintf("drive%d", i)))
	}
	if _, _, ok := c.Lookup(target); ok {
		t.Error("carried entry still alive after deletion + merge")
	}
	// Its siblings survive.
	if _, _, ok := c.Lookup(block.Ref{Block: 3, Entry: 0}); !ok {
		t.Error("sibling carried entry lost")
	}
}

func TestRedundancyReferenceFig9(t *testing.T) {
	env := newEnv(t, "alpha")
	cfg := Config{
		SequenceLength:      3,
		MaxSequences:        4,
		Shrink:              ShrinkMinimal,
		RedundancyReference: true,
		Registry:            env.registry,
		Clock:               simclock.NewLogical(0),
	}
	c := newChain(t, cfg)
	for i := 0; i < 12; i++ {
		mustSeal(t, c, env.data("alpha", fmt.Sprintf("e%d", i)))
	}
	// Find the newest summary block; it must reference a middle sequence.
	blocks := c.Blocks()
	var lastSummary *block.Block
	for _, b := range blocks {
		if b.IsSummary() {
			lastSummary = b
		}
	}
	if lastSummary == nil {
		t.Fatal("no summary block")
	}
	if lastSummary.SeqRef == nil {
		t.Fatal("summary lacks Fig. 9 redundancy reference")
	}
	ref := lastSummary.SeqRef
	if ref.LastBlock-ref.FirstBlock+1 != 3 {
		t.Errorf("reference spans %d blocks, want one sequence (3)", ref.LastBlock-ref.FirstBlock+1)
	}
	if ref.FirstBlock < c.Marker() {
		t.Errorf("reference points below the marker (%d < %d)", ref.FirstBlock, c.Marker())
	}
	if ref.Root.IsZero() {
		t.Error("reference root is zero")
	}
}

func TestEmptyBlockFiller(t *testing.T) {
	env := newEnv(t, "alpha")
	cfg := defaultConfig(env)
	cfg.MaxSequences = 1
	cfg.Shrink = ShrinkMinimal
	c := newChain(t, cfg)
	mustSeal(t, c, env.data("alpha", "lonely"))
	mustSeal(t, c, env.del("alpha", block.Ref{Block: 1, Entry: 0}))
	// No further transactions arrive; empty filler blocks still push the
	// deletion to physical execution (§IV-D.3).
	for i := 0; i < 6 && c.Stats().ActiveMarks > 0; i++ {
		if _, err := c.AppendEmpty(); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats().ActiveMarks != 0 {
		t.Error("empty-block filler never executed the deletion")
	}
	if _, _, ok := c.Lookup(block.Ref{Block: 1, Entry: 0}); ok {
		t.Error("entry survived")
	}
}

func TestRenderMarksAndDeletionEntries(t *testing.T) {
	c, env := paperScenario(t)
	mustSeal(t, c, env.data("ALPHA", "visible"))
	mustSeal(t, c, env.del("ALPHA", block.Ref{Block: 1, Entry: 0}))
	out := renderString(c, &RenderOptions{ShowMarks: true})
	if !strings.Contains(out, "DEL 1/0 K ALPHA") {
		t.Errorf("deletion entry not rendered:\n%s", out)
	}
	if !strings.Contains(out, "*marked*") {
		t.Errorf("mark annotation missing:\n%s", out)
	}
	// TTL annotation.
	mustSeal(t, c, env.temp("ALPHA", "short", 99, 0))
	out = renderString(c, nil)
	if !strings.Contains(out, "T t99") {
		t.Errorf("TTL annotation missing:\n%s", out)
	}
}

// TestQuickChainInvariants drives random workloads and asserts after
// every step what must always hold (docs/ARCHITECTURE.md §3): integrity,
// a marker on a sequence boundary, a live chain within its bound.
func TestQuickChainInvariants(t *testing.T) {
	env := newEnv(t, "u0", "u1", "u2")
	users := []string{"u0", "u1", "u2"}
	f := func(ops []uint16, maxSeq uint8, shrinkAll bool) bool {
		cfg := Config{
			SequenceLength:      3,
			MaxSequences:        int(maxSeq%4) + 1,
			RedundancyReference: true,
			Registry:            env.registry,
			Clock:               simclock.NewLogical(0),
		}
		if shrinkAll {
			cfg.Shrink = ShrinkAllButNewest
		} else {
			cfg.Shrink = ShrinkMinimal
		}
		c, err := New(cfg)
		if err != nil {
			return false
		}
		if len(ops) > 40 {
			ops = ops[:40]
		}
		var livingRefs []block.Ref
		for _, op := range ops {
			user := users[int(op)%len(users)]
			switch op % 4 {
			case 0, 1: // data entry
				blocks, _, err := c.commit([]*block.Entry{env.data(user, fmt.Sprintf("p%d", op))})
				if err != nil {
					return false
				}
				livingRefs = append(livingRefs, block.Ref{Block: blocks[0].Header.Number, Entry: 0})
			case 2: // temporary entry
				if _, _, err := c.commit([]*block.Entry{env.temp(user, "tmp", uint64(op%16), 0)}); err != nil {
					return false
				}
			case 3: // deletion attempt on a random earlier ref
				if len(livingRefs) == 0 {
					continue
				}
				target := livingRefs[int(op)%len(livingRefs)]
				owner := ""
				if e, _, ok := c.Lookup(target); ok {
					owner = e.Owner
				} else {
					owner = user
				}
				if _, _, err := c.commit([]*block.Entry{env.del(owner, target)}); err != nil {
					return false
				}
			}
			// Invariants.
			if err := c.VerifyIntegrity(); err != nil {
				t.Logf("integrity: %v", err)
				return false
			}
			if c.Marker()%3 != 0 {
				return false
			}
			if cfg.MaxSequences > 0 {
				maxLive := (cfg.MaxSequences + 1) * 3 // current partial + allowed complete
				if c.Len() > maxLive {
					t.Logf("live %d > bound %d", c.Len(), maxLive)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestAutoCohesionPolicyThroughConfig(t *testing.T) {
	// §IV-D.2's automatic approach: a high-clearance requester deletes an
	// entry with a lower-clearance dependent without co-signatures.
	env := newEnv(t, "ALPHA", "BRAVO")
	cfg := defaultConfig(env)
	cfg.AutoCohesion = deletion.NewAutoPolicy(map[string]int{"ALPHA": 2, "BRAVO": 1})
	c := newChain(t, cfg)
	mustSeal(t, c, env.data("ALPHA", "base"))
	base := block.Ref{Block: 1, Entry: 0}
	dep := block.NewData("BRAVO", []byte("downstream")).WithDependsOn(base).Sign(env.keys["BRAVO"])
	mustSeal(t, c, dep)

	plain := env.del("ALPHA", base)
	if err := c.CheckDeletionRequest(plain); err != nil {
		t.Fatalf("auto policy did not clear dominated dependent: %v", err)
	}
	mustSeal(t, c, plain)
	if !c.IsMarked(base) {
		t.Error("auto-approved deletion not marked")
	}
}

func TestCorrectionDeleteAndResubmit(t *testing.T) {
	// §V-A "Corrections: change information, which maybe submitted
	// wrongly" — a deletion request and the corrected entry land in the
	// same block; the old value is forgotten, the correction persists.
	env := newEnv(t, "ALPHA")
	cfg := defaultConfig(env)
	cfg.MaxSequences = 1
	cfg.Shrink = ShrinkMinimal
	c := newChain(t, cfg)
	mustSeal(t, c, env.data("ALPHA", "odometer 95000 km")) // typo: should be 59000
	wrong := block.Ref{Block: 1, Entry: 0}

	blocks := mustSeal(t, c,
		env.del("ALPHA", wrong),
		env.data("ALPHA", "odometer 59000 km"),
	)
	corrected := block.Ref{Block: blocks[0].Header.Number, Entry: 1}
	if !c.IsMarked(wrong) {
		t.Fatal("correction did not mark the wrong entry")
	}
	for c.IsMarked(wrong) {
		if _, err := c.AppendEmpty(); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := c.Lookup(wrong); ok {
		t.Error("wrong value still on chain")
	}
	e, _, ok := c.Lookup(corrected)
	if !ok || string(e.Payload) != "odometer 59000 km" {
		t.Errorf("correction lost: ok=%v payload=%q", ok, e.Payload)
	}
}

func TestRecoveryOfOrphanedEntries(t *testing.T) {
	// §V-A "Recovery": the system (admin/quorum role) can clean up
	// entries whose keys are lost, "not for a single user, but for the
	// entire blockchain system" — modelled as role-based deletion of a
	// stale participant's records.
	env := newEnv(t, "ALPHA", "lostuser", "admin")
	cfg := defaultConfig(env)
	cfg.MaxSequences = 1
	cfg.Shrink = ShrinkMinimal
	c := newChain(t, cfg)
	mustSeal(t, c, env.data("lostuser", "coins nobody can move"))
	stale := block.Ref{Block: 1, Entry: 0}
	activeBlocks := mustSeal(t, c, env.data("ALPHA", "active record"))
	active := block.Ref{Block: activeBlocks[0].Header.Number, Entry: 0}

	// lostuser's key is gone; the quorum-backed admin reclaims the entry.
	// (The merge triggered by this very commit may execute the mark
	// immediately, so "marked" and "already gone" are both success.)
	mustSeal(t, c, env.del("admin", stale))
	if _, _, alive := c.Lookup(stale); alive && !c.IsMarked(stale) {
		t.Fatal("admin recovery request rejected")
	}
	for c.IsMarked(stale) {
		if _, err := c.AppendEmpty(); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := c.Lookup(stale); ok {
		t.Error("stale entry still present after recovery")
	}
	if _, _, ok := c.Lookup(active); !ok {
		t.Error("active record lost during recovery")
	}
}

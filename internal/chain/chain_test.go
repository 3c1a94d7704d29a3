package chain

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/deletion"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/manifest"
	"github.com/seldel/seldel/internal/simclock"
)

// testEnv bundles a registry with deterministic participants.
type testEnv struct {
	registry *identity.Registry
	keys     map[string]*identity.KeyPair
}

func newEnv(t *testing.T, users ...string) *testEnv {
	t.Helper()
	env := &testEnv{
		registry: identity.NewRegistry(),
		keys:     make(map[string]*identity.KeyPair),
	}
	for _, u := range users {
		kp := identity.Deterministic(u, "chain-test")
		role := identity.RoleUser
		switch u {
		case "admin":
			role = identity.RoleAdmin
		case "quorum":
			role = identity.RoleMaster
		}
		if err := env.registry.RegisterKey(kp, role); err != nil {
			t.Fatal(err)
		}
		env.keys[u] = kp
	}
	return env
}

func (e *testEnv) data(user, payload string) *block.Entry {
	return block.NewData(user, []byte(payload)).Sign(e.keys[user])
}

func (e *testEnv) temp(user, payload string, expT, expB uint64) *block.Entry {
	return block.NewTemporary(user, []byte(payload), expT, expB).Sign(e.keys[user])
}

func (e *testEnv) del(user string, target block.Ref) *block.Entry {
	return block.NewDeletion(user, target).Sign(e.keys[user])
}

func defaultConfig(e *testEnv) Config {
	return Config{
		SequenceLength: 3,
		MaxSequences:   2,
		Registry:       e.registry,
		Clock:          simclock.NewLogical(0),
	}
}

func newChain(t *testing.T, cfg Config) *Chain {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func mustSeal(t *testing.T, c *Chain, entries ...*block.Entry) []*block.Block {
	t.Helper()
	blocks, _, err := c.commit(entries)
	if err != nil {
		t.Fatalf("seal: %v", err)
	}
	return blocks
}

func TestNewGenesis(t *testing.T) {
	env := newEnv(t, "alpha")
	c := newChain(t, defaultConfig(env))
	head := c.Head()
	if head.Number != 0 {
		t.Errorf("genesis number = %d", head.Number)
	}
	if head.PrevHash != block.GenesisPrevHash {
		t.Error("genesis prev hash is not DEADB sentinel")
	}
	if c.Len() != 1 || c.Marker() != 0 {
		t.Errorf("Len=%d Marker=%d", c.Len(), c.Marker())
	}
	if err := c.VerifyIntegrity(); err != nil {
		t.Errorf("VerifyIntegrity: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	env := newEnv(t, "alpha")
	tests := []struct {
		name string
		mod  func(*Config)
	}{
		{"short sequence", func(c *Config) { c.SequenceLength = 1 }},
		{"nil registry", func(c *Config) { c.Registry = nil }},
		{"bad shrink", func(c *Config) { c.Shrink = ShrinkPolicy(9) }},
		{"negative max", func(c *Config) { c.MaxBlocks = -1 }},
		{"maxblocks below seq", func(c *Config) { c.MaxBlocks = 2 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := defaultConfig(env)
			tt.mod(&cfg)
			if _, err := New(cfg); !errors.Is(err, ErrConfig) {
				t.Errorf("New = %v, want ErrConfig", err)
			}
		})
	}
}

func TestSealCreatesSummaryAtSlot(t *testing.T) {
	env := newEnv(t, "alpha")
	c := newChain(t, defaultConfig(env))
	// Block 1 (normal) then block 2 must be the summary slot for l=3.
	blocks := mustSeal(t, c, env.data("alpha", "first"))
	if len(blocks) != 2 {
		t.Fatalf("seal returned %d blocks, want normal+summary", len(blocks))
	}
	if blocks[0].IsSummary() || !blocks[1].IsSummary() {
		t.Error("block kinds wrong")
	}
	if blocks[1].Header.Number != 2 {
		t.Errorf("summary number = %d, want 2", blocks[1].Header.Number)
	}
	if blocks[1].Header.Time != blocks[0].Header.Time {
		t.Error("summary timestamp must equal preceding block's (§IV-B)")
	}
	if len(blocks[1].Carried) != 0 {
		t.Error("first summary should be empty (nothing to merge yet)")
	}
}

func TestSummarySlotArithmetic(t *testing.T) {
	env := newEnv(t, "alpha")
	c := newChain(t, defaultConfig(env)) // l = 3
	for _, want := range []struct {
		num     uint64
		summary bool
	}{{1, false}, {2, true}, {3, false}, {4, false}, {5, true}, {8, true}, {9, false}} {
		if got := c.isSummarySlot(want.num); got != want.summary {
			t.Errorf("isSummarySlot(%d) = %v, want %v", want.num, got, want.summary)
		}
	}
}

func TestLookupAndConfirmations(t *testing.T) {
	env := newEnv(t, "alpha", "bravo")
	c := newChain(t, defaultConfig(env))
	mustSeal(t, c, env.data("alpha", "a1"), env.data("bravo", "b1"))

	ref := block.Ref{Block: 1, Entry: 1}
	e, loc, ok := c.Lookup(ref)
	if !ok {
		t.Fatal("entry not found")
	}
	if e.Owner != "bravo" || loc.Carried {
		t.Errorf("entry = %+v loc = %+v", e, loc)
	}
	// Confirmations: the distance from the holder to the head (summary
	// block 2).
	if conf := c.Head().Number - loc.Block; conf != 1 {
		t.Errorf("confirmations = %d, want 1", conf)
	}
	if _, _, ok := c.Lookup(block.Ref{Block: 99}); ok {
		t.Error("missing ref resolved")
	}
}

func TestAppendBlockRejections(t *testing.T) {
	env := newEnv(t, "alpha")
	cfg := defaultConfig(env)
	c := newChain(t, cfg)

	okBlock, err := c.buildNormal([]*block.Entry{env.data("alpha", "x")})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("wrong number", func(t *testing.T) {
		b := okBlock.Clone()
		b.Header.Number = 7
		if err := c.AppendBlock(b); !errors.Is(err, ErrNotNext) {
			t.Errorf("err = %v, want ErrNotNext", err)
		}
	})
	t.Run("wrong prev", func(t *testing.T) {
		b := okBlock.Clone()
		b.Header.PrevHash[0] ^= 0xFF
		if err := c.AppendBlock(b); !errors.Is(err, ErrNotNext) {
			t.Errorf("err = %v, want ErrNotNext", err)
		}
	})
	t.Run("time regression", func(t *testing.T) {
		head := c.Head()
		b := block.NewNormal(1, head.Time-1, c.HeadHash(), nil)
		if err := c.AppendBlock(b); !errors.Is(err, ErrTimeRegression) {
			t.Errorf("err = %v, want ErrTimeRegression", err)
		}
	})
	t.Run("summary in normal slot", func(t *testing.T) {
		s := block.NewSummary(1, c.Head().Time, c.HeadHash(), nil, nil)
		if err := c.AppendBlock(s); !errors.Is(err, ErrWrongSlot) {
			t.Errorf("err = %v, want ErrWrongSlot", err)
		}
	})
	t.Run("unsigned entry", func(t *testing.T) {
		bad := block.NewData("alpha", []byte("x")) // never signed
		b := block.NewNormal(1, c.Head().Time+1, c.HeadHash(), []*block.Entry{bad})
		// The block-level shape check catches this before the chain-level
		// entry validation does.
		if err := c.AppendBlock(b); !errors.Is(err, block.ErrUnsigned) {
			t.Errorf("err = %v, want block.ErrUnsigned", err)
		}
	})
	t.Run("forged signature", func(t *testing.T) {
		forged := env.data("alpha", "x")
		forged.Payload = []byte("tampered")
		b := block.NewNormal(1, c.Head().Time+1, c.HeadHash(), []*block.Entry{forged})
		if err := c.AppendBlock(b); !errors.Is(err, ErrEntryInvalid) {
			t.Errorf("err = %v, want ErrEntryInvalid", err)
		}
	})
	// Finally the valid block must append.
	if err := c.AppendBlock(okBlock); err != nil {
		t.Fatalf("valid block rejected: %v", err)
	}
	t.Run("normal in summary slot", func(t *testing.T) {
		b := block.NewNormal(2, c.Head().Time+1, c.HeadHash(), nil)
		if err := c.AppendBlock(b); !errors.Is(err, ErrWrongSlot) {
			t.Errorf("err = %v, want ErrWrongSlot", err)
		}
	})
}

func TestSummaryMismatchDetected(t *testing.T) {
	// A node whose summary differs from the locally computed one has
	// forked (§IV-B); AppendBlock must reject it.
	env := newEnv(t, "alpha")
	c := newChain(t, defaultConfig(env))
	if err := c.AppendBlock(mustBuildNormal(t, c, env.data("alpha", "x"))); err != nil {
		t.Fatal(err)
	}
	s, err := c.BuildSummary()
	if err != nil {
		t.Fatal(err)
	}
	forged := block.NewSummary(s.Header.Number, s.Header.Time, s.Header.PrevHash,
		[]block.CarriedEntry{{OriginBlock: 1, OriginTime: 2, EntryNumber: 0, Entry: env.data("alpha", "fake")}}, nil)
	if err := c.AppendBlock(forged); !errors.Is(err, ErrSummaryMismatch) {
		t.Errorf("err = %v, want ErrSummaryMismatch", err)
	}
	// Only the planned block itself skips the shape check: a copy with
	// its body swapped under the planned header is caught by it.
	swapped := s.Clone()
	swapped.Carried = forged.Carried
	if err := c.AppendBlock(swapped); !errors.Is(err, block.ErrRootMismatch) {
		t.Errorf("swapped body: err = %v, want ErrRootMismatch", err)
	}
	if err := c.AppendBlock(s); err != nil {
		t.Fatalf("correct summary rejected: %v", err)
	}
}

// TestSummaryPlannedOncePerHead: BuildSummary plans Σ once per head and
// hands every caller the same block; a fault-injected mark, the one
// change that leaves the head alone, replans; the append that consumes
// the plan drops it.
func TestSummaryPlannedOncePerHead(t *testing.T) {
	env := newEnv(t, "alpha")
	c := newChain(t, defaultConfig(env)) // l = 3, two sequences
	for i := 0; i < 4; i++ {
		mustSeal(t, c, env.data("alpha", fmt.Sprintf("x%d", i)))
	}
	if err := c.AppendBlock(mustBuildNormal(t, c, env.data("alpha", "last"))); err != nil {
		t.Fatal(err)
	}
	s1, err := c.BuildSummary()
	if err != nil {
		t.Fatal(err)
	}
	if s2, _ := c.BuildSummary(); s2 != s1 {
		t.Fatal("BuildSummary twice on one head returned two blocks")
	}
	victim := block.Ref{Block: 1, Entry: 0}
	carries := func(s *block.Block, ref block.Ref) bool {
		for _, ce := range s.Carried {
			if ce.Ref() == ref {
				return true
			}
		}
		return false
	}
	if !carries(s1, victim) {
		t.Fatalf("Σ %d does not carry %s: the fixture merges nothing", s1.Header.Number, victim)
	}

	c.InjectMarkForTest(victim)
	s3, err := c.BuildSummary()
	if err != nil {
		t.Fatal(err)
	}
	if s3 == s1 || carries(s3, victim) || len(s3.Carried) != len(s1.Carried)-1 {
		t.Fatalf("after the injected mark Σ carries %d entries (victim carried: %v), before %d",
			len(s3.Carried), carries(s3, victim), len(s1.Carried))
	}
	if err := c.AppendBlock(s1); !errors.Is(err, ErrSummaryMismatch) {
		t.Fatalf("stale plan: err = %v, want ErrSummaryMismatch", err)
	}
	if err := c.AppendBlock(s3); err != nil {
		t.Fatal(err)
	}
	if p := c.planned.Load(); p != nil {
		t.Fatalf("Σ %d still held after its append", p.block.Header.Number)
	}
}

func mustBuildNormal(t *testing.T, c *Chain, entries ...*block.Entry) *block.Block {
	t.Helper()
	b, err := c.buildNormal(entries)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBuildNormalRejectsSummarySlot(t *testing.T) {
	env := newEnv(t, "alpha")
	c := newChain(t, defaultConfig(env))
	if err := c.AppendBlock(mustBuildNormal(t, c, env.data("alpha", "x"))); err != nil {
		t.Fatal(err)
	}
	if _, err := c.buildNormal(nil); !errors.Is(err, ErrWrongSlot) {
		t.Errorf("buildNormal in summary slot: %v", err)
	}
	if _, err := c.BuildSummary(); err != nil {
		t.Errorf("BuildSummary: %v", err)
	}
}

func TestBuildSummaryRejectsNormalSlot(t *testing.T) {
	env := newEnv(t, "alpha")
	c := newChain(t, defaultConfig(env))
	if _, err := c.BuildSummary(); !errors.Is(err, ErrWrongSlot) {
		t.Errorf("BuildSummary in normal slot: %v", err)
	}
}

func TestDeterministicAcrossChains(t *testing.T) {
	// Two chains fed the same committed blocks end with identical heads;
	// summary blocks are computed independently on the second chain.
	env := newEnv(t, "alpha", "bravo")
	c1 := newChain(t, defaultConfig(env))
	cfg2 := defaultConfig(env)
	cfg2.Clock = simclock.NewLogical(0)
	c2 := newChain(t, cfg2)

	for i := 0; i < 10; i++ {
		entries := []*block.Entry{env.data("alpha", fmt.Sprintf("payload-%d", i))}
		blocks, _, err := c1.commit(entries)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks {
			if b.IsSummary() {
				// The receiving node builds its own summary (§IV-B: the
				// block "does not need to be propagated by itself"), then
				// cross-checks against the gossiped one.
				local, err := c2.BuildSummary()
				if err != nil {
					t.Fatal(err)
				}
				if local.Hash() != b.Hash() {
					t.Fatalf("independently built summary differs at block %d", b.Header.Number)
				}
			}
			if err := c2.AppendBlock(b); err != nil {
				t.Fatalf("replicate block %d: %v", b.Header.Number, err)
			}
		}
	}
	if c1.HeadHash() != c2.HeadHash() {
		t.Error("replicated chain head differs")
	}
	if c1.Marker() != c2.Marker() {
		t.Error("replicated chain marker differs")
	}
}

func TestListenerEvents(t *testing.T) {
	env := newEnv(t, "alpha")
	cfg := defaultConfig(env)
	cfg.MaxSequences = 1
	cfg.Shrink = ShrinkMinimal
	c := newChain(t, cfg)

	var appended, truncated int
	var lastShift [2]uint64
	c.AddListener(&funcListener{
		onAppend:   func(b *block.Block) { appended++ },
		onTruncate: func(oldM, newM uint64) { truncated++; lastShift = [2]uint64{oldM, newM} },
	})
	// Drive past the first merge: with l=3, MaxSequences=1, the summary
	// at block 5 must merge sequence 0 and shift the marker to 3.
	for i := 0; i < 4; i++ {
		mustSeal(t, c, env.data("alpha", fmt.Sprintf("p%d", i)))
	}
	// OnTruncate fires on the compactor goroutine; barrier before
	// asserting (the barrier also orders the listener's writes).
	if err := c.CompactWait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if appended == 0 {
		t.Error("no OnAppend events")
	}
	if truncated == 0 {
		t.Fatal("no OnTruncate events")
	}
	if lastShift[0] >= lastShift[1] {
		t.Errorf("marker shift %v not increasing", lastShift)
	}
	if c.Marker() != lastShift[1] {
		t.Errorf("marker %d != last shift %d", c.Marker(), lastShift[1])
	}
}

type funcListener struct {
	onAppend   func(*block.Block)
	onTruncate func(uint64, uint64)
}

func (l *funcListener) OnAppend(b *block.Block)      { l.onAppend(b) }
func (l *funcListener) OnTruncate(oldM, newM uint64) { l.onTruncate(oldM, newM) }

// slowSummaryListener takes 20 ms over every summary block it is handed,
// as an observer doing slow work on a large Σ does, and, as the cut of
// a store it watches, notes each truncation that arrives before its
// summary block did.
type slowSummaryListener struct {
	mu          sync.Mutex
	appended    map[uint64]bool
	truncations int
	early       []string
}

func (l *slowSummaryListener) OnAppend(b *block.Block) {
	if b.IsSummary() {
		time.Sleep(20 * time.Millisecond)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.appended[b.Header.Number] = true
}

func (l *slowSummaryListener) OnTruncate(uint64, uint64) {}

func (l *slowSummaryListener) cut(marker uint64, rec *manifest.Record) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.truncations++
	if !l.appended[rec.SummaryBlock] {
		l.early = append(l.early, fmt.Sprintf("truncation to %d arrived before summary %d", marker, rec.SummaryBlock))
	}
}

// TestTruncationWaitsForItsSummaryListeners: a truncation reaches the
// store only after the summary block that caused it reached every
// listener, however long OnAppend takes, so a store never deletes below
// a Σ it has not written yet.
func TestTruncationWaitsForItsSummaryListeners(t *testing.T) {
	env := newEnv(t, "alpha")
	cfg := defaultConfig(env)
	cfg.MaxSequences = 1
	cfg.Shrink = ShrinkMinimal
	l := &slowSummaryListener{appended: make(map[uint64]bool)}
	c, err := Open(cfg, &hookStore{Store: openSegment(t), cut: l.cut})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.AddListener(l)
	for i := 0; i < 6; i++ {
		mustSeal(t, c, env.data("alpha", fmt.Sprintf("p%d", i)))
	}
	if err := c.CompactWait(context.Background()); err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.truncations == 0 {
		t.Fatal("the chain never truncated")
	}
	for _, msg := range l.early {
		t.Error(msg)
	}
}

func TestSealHooks(t *testing.T) {
	env := newEnv(t, "alpha")
	cfg := defaultConfig(env)
	sealed := 0
	cfg.Seal = func(b *block.Block) error {
		b.Header.Nonce = 42
		sealed++
		return nil
	}
	cfg.VerifySeal = func(b *block.Block) error {
		if b.Header.Nonce != 42 {
			return errors.New("bad nonce")
		}
		return nil
	}
	c := newChain(t, cfg)
	blocks := mustSeal(t, c, env.data("alpha", "x"))
	if sealed != 1 {
		t.Errorf("sealed %d blocks, want 1 (summaries are never sealed)", sealed)
	}
	if blocks[1].Header.Nonce != 0 {
		t.Error("summary block was sealed")
	}
	// A block violating VerifySeal must be rejected.
	bad := mustBuildNormal(t, c, env.data("alpha", "y"))
	bad.Header.Nonce = 0
	// Recompute nothing: nonce is in the header hash, so we just append.
	if err := c.AppendBlock(bad); !errors.Is(err, ErrSealFailed) {
		t.Errorf("err = %v, want ErrSealFailed", err)
	}
}

func TestStatsCounters(t *testing.T) {
	env := newEnv(t, "alpha", "bravo")
	cfg := defaultConfig(env)
	cfg.MaxSequences = 1
	cfg.Shrink = ShrinkMinimal
	c := newChain(t, cfg)

	mustSeal(t, c, env.data("alpha", "keep"), env.data("bravo", "kill"))
	target := block.Ref{Block: 1, Entry: 1}
	mustSeal(t, c, env.del("bravo", target))

	s := c.Stats()
	if s.ActiveMarks != 1 {
		t.Errorf("ActiveMarks = %d, want 1", s.ActiveMarks)
	}
	// Drive until the mark executes.
	for i := 0; i < 6 && c.Stats().ActiveMarks > 0; i++ {
		mustSeal(t, c, env.data("alpha", fmt.Sprintf("f%d", i)))
	}
	s = c.Stats()
	if s.ActiveMarks != 0 {
		t.Fatalf("mark never executed; stats %+v", s)
	}
	if s.ForgottenEntries != 1 {
		t.Errorf("ForgottenEntries = %d, want 1", s.ForgottenEntries)
	}
	if s.CutBlocks == 0 {
		t.Error("CutBlocks = 0 after merges")
	}
	if s.LiveBlocks != c.Len() {
		t.Errorf("LiveBlocks %d != Len %d", s.LiveBlocks, c.Len())
	}
	if s.LiveBytes <= 0 {
		t.Errorf("LiveBytes = %d", s.LiveBytes)
	}
	// The forgotten entry must be gone; the kept entry must survive.
	if _, _, ok := c.Lookup(target); ok {
		t.Error("deleted entry still resolvable")
	}
	if _, _, ok := c.Lookup(block.Ref{Block: 1, Entry: 0}); !ok {
		t.Error("surviving entry lost")
	}
}

func TestCheckDeletionRequestEagerValidation(t *testing.T) {
	env := newEnv(t, "alpha", "bravo")
	c := newChain(t, defaultConfig(env))
	mustSeal(t, c, env.data("alpha", "mine"))

	// Bravo may not delete alpha's entry.
	bad := env.del("bravo", block.Ref{Block: 1, Entry: 0})
	if err := c.CheckDeletionRequest(bad); !errors.Is(err, deletion.ErrUnauthorized) {
		t.Errorf("err = %v, want ErrUnauthorized", err)
	}
	// Alpha may.
	good := env.del("alpha", block.Ref{Block: 1, Entry: 0})
	if err := c.CheckDeletionRequest(good); err != nil {
		t.Errorf("CheckDeletionRequest: %v", err)
	}
	// Missing target.
	missing := env.del("alpha", block.Ref{Block: 77, Entry: 0})
	if err := c.CheckDeletionRequest(missing); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
	// Non-deletion entry.
	if err := c.CheckDeletionRequest(env.data("alpha", "not a request")); !errors.Is(err, ErrEntryInvalid) {
		t.Errorf("err = %v, want ErrEntryInvalid", err)
	}
}

func TestHeadAndNextNumber(t *testing.T) {
	env := newEnv(t, "alpha")
	c := newChain(t, defaultConfig(env))
	if c.NextNumber() != 1 {
		t.Errorf("NextNumber = %d", c.NextNumber())
	}
	if c.NextIsSummary() {
		t.Error("block 1 must not be a summary slot")
	}
	mustSeal(t, c, env.data("alpha", "x"))
	if c.NextNumber() != 3 {
		t.Errorf("NextNumber after summary = %d, want 3", c.NextNumber())
	}
}

func TestBlocksSnapshotIsolation(t *testing.T) {
	env := newEnv(t, "alpha")
	c := newChain(t, defaultConfig(env))
	snap := c.Blocks()
	mustSeal(t, c, env.data("alpha", "x"))
	if len(snap) != 1 {
		t.Error("snapshot mutated by later append")
	}
}

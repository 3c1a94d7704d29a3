package verify

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/identity"
)

func testRegistry(t *testing.T) (*identity.Registry, *identity.KeyPair) {
	t.Helper()
	reg := identity.NewRegistry()
	kp := identity.Deterministic("alice", "verify-test")
	if err := reg.RegisterKey(kp, identity.RoleUser); err != nil {
		t.Fatal(err)
	}
	return reg, kp
}

func signedEntries(kp *identity.KeyPair, n int) []*block.Entry {
	out := make([]*block.Entry, n)
	for i := range out {
		out[i] = block.NewData(kp.Name(), []byte(fmt.Sprintf("payload-%d", i))).Sign(kp)
	}
	return out
}

func TestEntriesVerifiesBatch(t *testing.T) {
	reg, kp := testRegistry(t)
	for _, workers := range []int{1, 4} {
		p := New(Options{Workers: workers})
		if err := p.Entries(reg, signedEntries(kp, 33)); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

func TestEntriesReportsFirstBadIndex(t *testing.T) {
	reg, kp := testRegistry(t)
	entries := signedEntries(kp, 8)
	entries[5].Signature[0] ^= 0xff
	p := New(Options{Workers: 4})
	err := p.Entries(reg, entries)
	var ee *EntryError
	if !errors.As(err, &ee) {
		t.Fatalf("want *EntryError, got %v", err)
	}
	if ee.Index != 5 {
		t.Fatalf("bad index: got %d, want 5", ee.Index)
	}
	if !errors.Is(err, identity.ErrBadSignature) {
		t.Fatalf("want ErrBadSignature, got %v", err)
	}
}

func TestEntriesRejectsUnknownOwner(t *testing.T) {
	reg, _ := testRegistry(t)
	mallory := identity.Deterministic("mallory", "verify-test")
	e := block.NewData("mallory", []byte("x")).Sign(mallory)
	p := New(Options{Workers: 2})
	if err := p.Entries(reg, []*block.Entry{e}); !errors.Is(err, identity.ErrUnknownIdentity) {
		t.Fatalf("want ErrUnknownIdentity, got %v", err)
	}
}

func TestEntriesRejectsBadShape(t *testing.T) {
	reg, kp := testRegistry(t)
	e := block.NewData(kp.Name(), []byte("x")) // unsigned
	p := New(Options{Workers: 2})
	if err := p.Entries(reg, []*block.Entry{e}); !errors.Is(err, block.ErrUnsigned) {
		t.Fatalf("want ErrUnsigned, got %v", err)
	}
}

func TestCacheHitsOnReverification(t *testing.T) {
	reg, kp := testRegistry(t)
	entries := signedEntries(kp, 16)
	p := New(Options{Workers: 2, CacheSize: 1024})
	if err := p.Entries(reg, entries); err != nil {
		t.Fatal(err)
	}
	before := p.Stats()
	if err := p.Entries(reg, entries); err != nil {
		t.Fatal(err)
	}
	after := p.Stats()
	if got := after.CacheHits - before.CacheHits; got != 16 {
		t.Fatalf("second pass hits: got %d, want 16", got)
	}
	if after.Verified != before.Verified {
		t.Fatalf("second pass performed %d real verifications", after.Verified-before.Verified)
	}
}

func TestCacheDisabled(t *testing.T) {
	reg, kp := testRegistry(t)
	entries := signedEntries(kp, 4)
	p := New(Options{Workers: 1, CacheSize: -1})
	for i := 0; i < 3; i++ {
		if err := p.Entries(reg, entries); err != nil {
			t.Fatal(err)
		}
	}
	s := p.Stats()
	if s.CacheHits != 0 || s.CacheMisses != 0 {
		t.Fatalf("disabled cache recorded probes: %+v", s)
	}
	if s.Verified != 12 {
		t.Fatalf("verified: got %d, want 12", s.Verified)
	}
}

func TestRejectsMalformedSignatureSizes(t *testing.T) {
	reg, kp := testRegistry(t)
	p := New(Options{Workers: 1})
	for _, n := range []int{1, 63, 65, 128} {
		e := block.NewData(kp.Name(), []byte("x")).Sign(kp)
		e.Signature = e.Signature[:0]
		e.Signature = append(e.Signature, make([]byte, n)...)
		if err := p.Entries(reg, []*block.Entry{e}); !errors.Is(err, identity.ErrBadSignature) {
			t.Fatalf("sig len %d: want ErrBadSignature, got %v", n, err)
		}
	}
}

func TestCacheDoesNotConfuseKeys(t *testing.T) {
	// Two registries map the same name to different keys: a signature
	// cached under one key must not satisfy the other.
	regA := identity.NewRegistry()
	regB := identity.NewRegistry()
	kpA := identity.Deterministic("alice", "seed-A")
	kpB := identity.Deterministic("alice", "seed-B")
	if err := regA.RegisterKey(kpA, identity.RoleUser); err != nil {
		t.Fatal(err)
	}
	if err := regB.RegisterKey(kpB, identity.RoleUser); err != nil {
		t.Fatal(err)
	}
	e := block.NewData("alice", []byte("payload")).Sign(kpA)
	p := New(Options{Workers: 1})
	if err := p.Entries(regA, []*block.Entry{e}); err != nil {
		t.Fatal(err)
	}
	if err := p.Entries(regB, []*block.Entry{e}); !errors.Is(err, identity.ErrBadSignature) {
		t.Fatalf("cross-registry: want ErrBadSignature, got %v", err)
	}
}

func TestLRUEvicts(t *testing.T) {
	c := newCache(cacheShards) // one slot per shard
	var keys []cacheKey
	for i := 0; i < 4; i++ {
		var k cacheKey
		k[0] = 0 // same shard
		k[1] = byte(i)
		keys = append(keys, k)
		c.add(k)
	}
	if c.contains(keys[0]) || c.contains(keys[1]) || c.contains(keys[2]) {
		t.Fatal("old keys not evicted from full shard")
	}
	if !c.contains(keys[3]) {
		t.Fatal("newest key evicted")
	}
}

func TestBlocksVerifiesCarriedEntries(t *testing.T) {
	reg, kp := testRegistry(t)
	entries := signedEntries(kp, 3)
	normal := block.NewNormal(1, 1, block.GenesisPrevHash, entries)
	carried := []block.CarriedEntry{{OriginBlock: 1, OriginTime: 1, EntryNumber: 0, Entry: entries[0]}}
	summary := block.NewSummary(2, 1, normal.Hash(), carried, nil)
	p := New(Options{Workers: 4})
	if err := p.Blocks(reg, []*block.Block{normal, summary}); err != nil {
		t.Fatal(err)
	}
	// Corrupt a carried signature: Blocks must catch it.
	bad := entries[0].Clone()
	bad.Signature[0] ^= 0xff
	summary2 := block.NewSummary(2, 1, normal.Hash(), []block.CarriedEntry{{OriginBlock: 1, OriginTime: 1, EntryNumber: 0, Entry: bad}}, nil)
	if err := p.Blocks(reg, []*block.Block{summary2}); !errors.Is(err, identity.ErrBadSignature) {
		t.Fatalf("want ErrBadSignature, got %v", err)
	}
}

// settle polls until cond holds; Warm hands back no handle to wait on.
func settle(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestCloseStopsWorkersKeepsVerifying pins that a pool holds no
// goroutines — there is nothing for Close to stop or for a caller that
// forgets it to leak — and that verifying after Close still works.
func TestCloseStopsWorkersKeepsVerifying(t *testing.T) {
	reg, kp := testRegistry(t)
	entries := signedEntries(kp, 40)
	before := runtime.NumGoroutine()
	pools := make([]*Pool, 32)
	for i := range pools {
		pools[i] = New(Options{Workers: 4})
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("32 pools, none closed: %d goroutines, %d before", got, before)
	}
	p := pools[0]
	p.Warm(reg, entries)
	settle(t, "Warm's goroutines to exit", func() bool {
		return p.Stats().Verified == 40 && runtime.NumGoroutine() <= before
	})

	p.Close()
	p.Close() // idempotent
	hits := p.Stats().CacheHits
	if err := p.Entries(reg, entries); err != nil {
		t.Fatalf("after close: %v", err)
	}
	if got := p.Stats().CacheHits - hits; got != 40 {
		t.Fatalf("after close: %d cache hits, want 40", got)
	}
}

// goid returns the calling goroutine's id, from its stack header.
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

func TestEachBoundsFanOut(t *testing.T) {
	// Workers 1: ascending, on the caller's goroutine.
	var order []int
	caller := goid()
	New(Options{Workers: 1}).Each(50, func(i int) {
		if g := goid(); g != caller {
			t.Errorf("index %d ran on goroutine %s, caller is %s", i, g, caller)
		}
		order = append(order, i)
	})
	for i, got := range order {
		if got != i {
			t.Fatalf("Workers 1 visited %v, want ascending", order)
		}
	}
	if len(order) != 50 {
		t.Fatalf("Workers 1 visited %d of 50 indices", len(order))
	}

	// Every index exactly once, never more than Workers calls at once.
	for _, tc := range []struct{ workers, n int }{{3, 200}, {8, 5}, {2, 2}, {4, 1}, {4, 0}} {
		var running, peak atomic.Int64
		visits := make([]atomic.Int64, tc.n)
		New(Options{Workers: tc.workers}).Each(tc.n, func(i int) {
			now := running.Add(1)
			for old := peak.Load(); now > old && !peak.CompareAndSwap(old, now); old = peak.Load() {
			}
			visits[i].Add(1)
			time.Sleep(50 * time.Microsecond)
			running.Add(-1)
		})
		for i := range visits {
			if v := visits[i].Load(); v != 1 {
				t.Fatalf("workers=%d n=%d: index %d visited %d times", tc.workers, tc.n, i, v)
			}
		}
		if got, limit := peak.Load(), int64(min(tc.workers, tc.n)); got > limit {
			t.Fatalf("workers=%d n=%d: %d calls in flight at once, bound is %d", tc.workers, tc.n, got, limit)
		}
	}

	// And it does fan out: four calls that each wait for the other three
	// only finish if min(Workers, n) of them run at once.
	var arrived, met atomic.Int64
	deadline := time.Now().Add(5 * time.Second)
	New(Options{Workers: 4}).Each(4, func(int) {
		arrived.Add(1)
		for arrived.Load() < 4 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if arrived.Load() == 4 {
			met.Add(1)
		}
	})
	if met.Load() != 4 {
		t.Fatalf("Workers 4, n 4: the four calls never ran at once (%d of them saw all four)", met.Load())
	}
}

// TestWarmFillsTheCache: once Warm of a mixed batch has settled, the
// authoritative checks over the same batch reach the curve for nothing.
func TestWarmFillsTheCache(t *testing.T) {
	reg, kp := testRegistry(t)
	var cosigners []*identity.KeyPair
	for _, name := range []string{"bob", "carol", "dave"} {
		k := identity.Deterministic(name, "verify-test")
		if err := reg.RegisterKey(k, identity.RoleUser); err != nil {
			t.Fatal(err)
		}
		cosigners = append(cosigners, k)
	}
	del := block.NewDeletion(kp.Name(), block.Ref{Block: 1, Entry: 0})
	for _, k := range cosigners {
		del.AddCoSignature(k)
	}
	entries := append(signedEntries(kp, 20), del.Sign(kp))
	const sigs = 21 + 3

	before := runtime.NumGoroutine()
	p := New(Options{Workers: 2})
	p.Warm(reg, entries)
	settle(t, "Warm's goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
	warmed := p.Stats()
	if warmed.Verified != sigs {
		t.Fatalf("Warm verified %d signatures, want %d", warmed.Verified, sigs)
	}
	if err := p.Entries(reg, entries); err != nil {
		t.Fatal(err)
	}
	for i, ok := range p.CoSigners(reg, del) {
		if !ok {
			t.Fatalf("co-signature %d rejected", i)
		}
	}
	after := p.Stats()
	if after.Verified != warmed.Verified || after.CacheMisses != warmed.CacheMisses {
		t.Fatalf("after Warm the checks still reached the curve: %+v -> %+v", warmed, after)
	}
	if got := after.CacheHits - warmed.CacheHits; got != sigs {
		t.Fatalf("cache hits after Warm: got %d, want %d", got, sigs)
	}

	// Without a cache there is nothing to warm.
	off := New(Options{Workers: 2, CacheSize: -1})
	off.Warm(reg, entries)
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("cache-off Warm started %d goroutine(s)", got-before)
	}
	if s := off.Stats(); s.Verified != 0 {
		t.Fatalf("cache-off Warm verified %d signatures", s.Verified)
	}
}

func TestConcurrentEntriesRace(t *testing.T) {
	reg, kp := testRegistry(t)
	entries := signedEntries(kp, 64)
	p := New(Options{Workers: 4, CacheSize: 128})
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if err := p.Entries(reg, entries); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

package verify

import (
	"fmt"
	"sync"
	"testing"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/identity"
)

// The tests named TestBatch… drive check, the queue's synchronous side,
// with one batch of signatures per call.

// batchFixture signs n distinct messages with per-index deterministic
// keys and returns them as check's input, one flight per signature.
func batchFixture(n int) []flight {
	sigs := make([]flight, n)
	for i := range sigs {
		kp := identity.Deterministic(fmt.Sprintf("signer-%d", i), "batch-test")
		msg := []byte(fmt.Sprintf("message-%d", i))
		sigs[i] = flight{pub: kp.Public(), msg: msg, sig: kp.Sign(msg)}
	}
	return sigs
}

// forge returns f with a copy of its signature whose byte at flips.
func forge(f flight, at int) flight {
	f.sig = append([]byte(nil), f.sig...)
	f.sig[at] ^= 0xff
	return f
}

func TestBatchVerifyAllValid(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(Options{Workers: workers})
		for i, ok := range p.check(batchFixture(40)) {
			if !ok {
				t.Fatalf("workers=%d: valid signature %d rejected", workers, i)
			}
		}
		if got := p.Stats().Batched; got != 40 {
			t.Fatalf("workers=%d: Batched = %d, want 40", workers, got)
		}
	}
}

// TestBatchVerifiesEachSignatureOnce: bad signatures are found without
// checking any signature twice — a 64-signature call with one corrupted
// signature, wherever it sits, costs exactly 64 curve checks, and a
// 30-signature call with four bad ones costs exactly 30.
func TestBatchVerifiesEachSignatureOnce(t *testing.T) {
	for _, tc := range []struct {
		n   int
		bad []int
	}{
		{64, []int{0}}, {64, []int{17}}, {64, []int{40}}, {64, []int{63}},
		{30, []int{1, 2, 15, 29}},
	} {
		p := New(Options{Workers: 4})
		sigs := batchFixture(tc.n)
		bad := make(map[int]bool)
		for _, i := range tc.bad {
			bad[i] = true
			sigs[i] = forge(sigs[i], 3)
		}
		for i, ok := range p.check(sigs) {
			if ok == bad[i] {
				t.Fatalf("bad=%v: verdict[%d] = %v", tc.bad, i, ok)
			}
		}
		if v := p.Stats().Verified; v != uint64(tc.n) {
			t.Fatalf("bad=%v: %d verifications for %d signatures, want one each", tc.bad, v, tc.n)
		}
	}
}

func TestBatchManyBadSignatures(t *testing.T) {
	p := New(Options{Workers: 2})
	sigs := batchFixture(30)
	bad := map[int]bool{1: true, 2: true, 15: true, 29: true}
	for i := range bad {
		sigs[i] = forge(sigs[i], 0)
	}
	for i, ok := range p.check(sigs) {
		if ok == bad[i] {
			t.Fatalf("verdict[%d] = %v, want %v", i, ok, !bad[i])
		}
	}
}

func TestBatchScreensCacheHits(t *testing.T) {
	p := New(Options{Workers: 2})
	sigs := batchFixture(12)
	for i, f := range sigs {
		if !p.VerifySig(f.pub, f.msg, f.sig) {
			t.Fatalf("warm VerifySig %d failed", i)
		}
	}
	before := p.Stats().Verified
	for i, ok := range p.check(sigs) {
		if !ok {
			t.Fatalf("cached signature %d rejected", i)
		}
	}
	s := p.Stats()
	if s.Verified != before {
		t.Fatalf("cache screen leaked %d signatures to the curve", s.Verified-before)
	}
	if s.Batched != 0 {
		t.Fatalf("Batched = %d on a fully cached call, want 0", s.Batched)
	}
}

func TestBatchCollapsesDuplicates(t *testing.T) {
	p := New(Options{Workers: 2})
	distinct := batchFixture(3)
	var sigs []flight
	for rep := 0; rep < 4; rep++ {
		sigs = append(sigs, distinct...)
	}
	for i, ok := range p.check(sigs) {
		if !ok {
			t.Fatalf("verdict[%d] = false", i)
		}
	}
	if v := p.Stats().Verified; v != 3 {
		t.Fatalf("duplicates not collapsed: %d verifications, want 3", v)
	}
}

// TestBatchDuplicateBadPropagates: every copy of a bad signature takes
// the verdict of the one check they share, since a bad signature never
// reaches the cache.
func TestBatchDuplicateBadPropagates(t *testing.T) {
	p := New(Options{Workers: 2})
	bad := forge(batchFixture(1)[0], 5)
	for i, ok := range p.check([]flight{bad, bad, bad, bad}) {
		if ok {
			t.Fatalf("duplicate of a bad signature accepted at %d", i)
		}
	}
	if v := p.Stats().Verified; v != 1 {
		t.Fatalf("four copies of one bad signature cost %d curve checks, want 1", v)
	}
}

func TestBatchRejectsMalformedSizes(t *testing.T) {
	p := New(Options{Workers: 2})
	sigs := batchFixture(2)
	truncKey, truncSig := sigs[0], sigs[1]
	truncKey.pub = truncKey.pub[:16]
	truncSig.sig = truncSig.sig[:8]
	verdicts := p.check([]flight{truncKey, truncSig, {}, sigs[1]})
	if verdicts[0] || verdicts[1] || verdicts[2] {
		t.Fatalf("malformed inputs accepted: %v", verdicts)
	}
	if !verdicts[3] {
		t.Fatal("valid signature rejected alongside malformed ones")
	}
	if v := p.Stats().Verified; v != 1 {
		t.Fatalf("malformed inputs reached the curve: %d verifications, want 1", v)
	}
}

func TestBatchWithoutCache(t *testing.T) {
	p := New(Options{Workers: 2, CacheSize: -1})
	sigs := batchFixture(20)
	sigs[7] = forge(sigs[7], 0)
	for i, ok := range p.check(sigs) {
		if ok == (i == 7) {
			t.Fatalf("verdict[%d] = %v", i, ok)
		}
	}
	if s := p.Stats(); s.CacheHits != 0 || s.CacheMisses != 0 {
		t.Fatalf("cache-off check probed a cache: %+v", s)
	}
}

// Verdicts do not depend on the number of workers: Workers 1 and 4
// agree on a mixed good / bad / duplicate call.
func TestBatchVerifyInlineMatchesVerify(t *testing.T) {
	sigs := batchFixture(33)
	sigs[10] = forge(sigs[10], 0)
	sigs = append(sigs, sigs[0], sigs[10], sigs[32]) // duplicates, one of them bad
	verdicts := func(workers int) []bool {
		return New(Options{Workers: workers}).check(append([]flight(nil), sigs...))
	}
	one, four := verdicts(1), verdicts(4)
	for i := range one {
		if one[i] != four[i] {
			t.Fatalf("verdict[%d]: Workers 1 %v, Workers 4 %v", i, one[i], four[i])
		}
		if want := i != 10 && i != 34; one[i] != want {
			t.Fatalf("verdict[%d] = %v, want %v", i, one[i], want)
		}
	}
}

func TestBatchEmpty(t *testing.T) {
	p := New(Options{Workers: 2})
	if v := p.check(nil); len(v) != 0 {
		t.Fatalf("empty call verdicts = %v, want none", v)
	}
}

func TestBatchPopulatesCacheForLaterSingles(t *testing.T) {
	p := New(Options{Workers: 2})
	sigs := batchFixture(8)
	p.check(sigs)
	before := p.Stats().Verified
	for i, f := range sigs {
		if !p.VerifySig(f.pub, f.msg, f.sig) {
			t.Fatalf("VerifySig %d failed after the check", i)
		}
	}
	if v := p.Stats().Verified; v != before {
		t.Fatalf("check results not cached: %d extra verifications", v-before)
	}
}

// backlog is a warm-up backlog far longer than one curve check: 256
// signed entries, signed once per test binary.
var backlog = sync.OnceValues(func() (*identity.Registry, []*block.Entry) {
	reg := identity.NewRegistry()
	kp := identity.Deterministic("backlog", "verify-test")
	if err := reg.RegisterKey(kp, identity.RoleUser); err != nil {
		panic(err)
	}
	return reg, signedEntries(kp, 256)
})

// TestCheckDoesNotWaitBehindWarmUps: a check queued behind a long
// warm-up backlog on a one-worker pool runs its miss at once, so a call
// holding one forged signature costs its caller one curve check, not
// the backlog. Were a check's flights appended after the warm-up
// entries, the call could not return before the backlog's group closed.
func TestCheckDoesNotWaitBehindWarmUps(t *testing.T) {
	reg, entries := backlog()
	p := New(Options{Workers: 1})
	warmed := p.Warm(reg, entries)
	bad := forge(batchFixture(1)[0], 0)
	if v := p.check([]flight{bad}); v[0] {
		t.Fatal("forged signature accepted")
	}
	select {
	case <-warmed:
		t.Fatalf("the check returned only after the %d-entry warm-up backlog", len(entries))
	default:
	}
	<-warmed
	drainWarmWorkers(t, p)
	if got, want := p.Stats().Verified, uint64(len(entries)+1); got != want {
		t.Fatalf("%d curve checks for %d distinct signatures", got, want)
	}
}

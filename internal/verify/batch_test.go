package verify

import (
	"crypto/ed25519"
	"fmt"
	"testing"

	"github.com/seldel/seldel/internal/identity"
)

// batchFixture signs n distinct messages with per-index deterministic
// keys and returns the parallel (pub, msg, sig) columns.
func batchFixture(n int) (pubs []ed25519.PublicKey, msgs, sigs [][]byte) {
	for i := 0; i < n; i++ {
		kp := identity.Deterministic(fmt.Sprintf("signer-%d", i), "batch-test")
		msg := []byte(fmt.Sprintf("message-%d", i))
		pubs = append(pubs, kp.Public())
		msgs = append(msgs, msg)
		sigs = append(sigs, kp.Sign(msg))
	}
	return
}

func TestBatchVerifyAllValid(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(Options{Workers: workers})
		pubs, msgs, sigs := batchFixture(40)
		b := p.NewBatch(40)
		for i := range pubs {
			b.Add(pubs[i], msgs[i], sigs[i])
		}
		for i, ok := range b.Verify() {
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
// checking any signature twice — a 64-signature batch with one
// corrupted signature, wherever it sits, costs exactly 64 curve checks,
// and a 30-signature batch with four bad ones costs exactly 30.
func TestBatchVerifiesEachSignatureOnce(t *testing.T) {
	for _, tc := range []struct {
		n   int
		bad []int
	}{
		{64, []int{0}}, {64, []int{17}}, {64, []int{40}}, {64, []int{63}},
		{30, []int{1, 2, 15, 29}},
	} {
		p := New(Options{Workers: 4})
		pubs, msgs, sigs := batchFixture(tc.n)
		bad := make(map[int]bool)
		for _, i := range tc.bad {
			bad[i] = true
			sigs[i] = append([]byte(nil), sigs[i]...)
			sigs[i][3] ^= 0xff
		}
		b := p.NewBatch(tc.n)
		for i := range pubs {
			b.Add(pubs[i], msgs[i], sigs[i])
		}
		for i, ok := range b.Verify() {
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
	pubs, msgs, sigs := batchFixture(30)
	bad := map[int]bool{1: true, 2: true, 15: true, 29: true}
	for i := range bad {
		sigs[i] = append([]byte(nil), sigs[i]...)
		sigs[i][0] ^= 0x01
	}
	b := p.NewBatch(30)
	for i := range pubs {
		b.Add(pubs[i], msgs[i], sigs[i])
	}
	for i, ok := range b.Verify() {
		if ok == bad[i] {
			t.Fatalf("verdict[%d] = %v, want %v", i, ok, !bad[i])
		}
	}
}

func TestBatchScreensCacheHits(t *testing.T) {
	p := New(Options{Workers: 2})
	pubs, msgs, sigs := batchFixture(12)
	for i := range pubs {
		if !p.VerifySig(pubs[i], msgs[i], sigs[i]) {
			t.Fatalf("warm VerifySig %d failed", i)
		}
	}
	before := p.Stats().Verified
	b := p.NewBatch(12)
	for i := range pubs {
		b.Add(pubs[i], msgs[i], sigs[i])
	}
	for i, ok := range b.Verify() {
		if !ok {
			t.Fatalf("cached signature %d rejected", i)
		}
	}
	s := p.Stats()
	if s.Verified != before {
		t.Fatalf("cache screen leaked %d signatures to the curve", s.Verified-before)
	}
	if s.Batched != 0 {
		t.Fatalf("Batched = %d on a fully cached batch, want 0", s.Batched)
	}
}

func TestBatchCollapsesDuplicates(t *testing.T) {
	p := New(Options{Workers: 2})
	pubs, msgs, sigs := batchFixture(3)
	b := p.NewBatch(12)
	for rep := 0; rep < 4; rep++ {
		for i := range pubs {
			b.Add(pubs[i], msgs[i], sigs[i])
		}
	}
	for i, ok := range b.Verify() {
		if !ok {
			t.Fatalf("verdict[%d] = false", i)
		}
	}
	if v := p.Stats().Verified; v != 3 {
		t.Fatalf("duplicates not collapsed: %d verifications, want 3", v)
	}
}

func TestBatchDuplicateBadPropagates(t *testing.T) {
	p := New(Options{Workers: 2})
	pubs, msgs, sigs := batchFixture(1)
	sigs[0] = append([]byte(nil), sigs[0]...)
	sigs[0][5] ^= 0xff
	b := p.NewBatch(4)
	for rep := 0; rep < 4; rep++ {
		b.Add(pubs[0], msgs[0], sigs[0])
	}
	for i, ok := range b.Verify() {
		if ok {
			t.Fatalf("duplicate of a bad signature accepted at %d", i)
		}
	}
}

func TestBatchRejectsMalformedSizes(t *testing.T) {
	p := New(Options{Workers: 2})
	pubs, msgs, sigs := batchFixture(2)
	before := p.Stats()
	b := p.NewBatch(3)
	b.Add(pubs[0][:16], msgs[0], sigs[0]) // truncated key
	b.Add(pubs[1], msgs[1], sigs[1][:8])  // truncated signature
	b.Add(pubs[1], msgs[1], sigs[1])
	verdicts := b.Verify()
	if verdicts[0] || verdicts[1] {
		t.Fatalf("malformed inputs accepted: %v", verdicts)
	}
	if !verdicts[2] {
		t.Fatal("valid signature rejected alongside malformed ones")
	}
	if v := p.Stats().Verified - before.Verified; v != 1 {
		t.Fatalf("malformed inputs reached the curve: %d verifications, want 1", v)
	}
}

func TestBatchWithoutCache(t *testing.T) {
	p := New(Options{Workers: 2, CacheSize: -1})
	pubs, msgs, sigs := batchFixture(20)
	sigs[7] = append([]byte(nil), sigs[7]...)
	sigs[7][0] ^= 0xff
	b := p.NewBatch(20)
	for i := range pubs {
		b.Add(pubs[i], msgs[i], sigs[i])
	}
	for i, ok := range b.Verify() {
		if ok == (i == 7) {
			t.Fatalf("verdict[%d] = %v", i, ok)
		}
	}
}

// Verdicts do not depend on the fan-out width: serial (Workers 1) and
// forked (Workers 8) agree.
func TestBatchVerifyInlineMatchesVerify(t *testing.T) {
	pubs, msgs, sigs := batchFixture(33)
	sigs[10] = append([]byte(nil), sigs[10]...)
	sigs[10][0] ^= 0xff
	verdicts := func(workers int) []bool {
		b := New(Options{Workers: workers}).NewBatch(36)
		for i := range pubs {
			b.Add(pubs[i], msgs[i], sigs[i])
		}
		for _, i := range []int{0, 10, 32} { // duplicates, one of them bad
			b.Add(pubs[i], msgs[i], sigs[i])
		}
		return b.Verify()
	}
	serial, forked := verdicts(1), verdicts(8)
	for i := range serial {
		if serial[i] != forked[i] {
			t.Fatalf("verdict[%d]: Workers 1 %v, Workers 8 %v", i, serial[i], forked[i])
		}
		if want := i != 10 && i != 34; serial[i] != want {
			t.Fatalf("verdict[%d] = %v, want %v", i, serial[i], want)
		}
	}
}

func TestBatchEmpty(t *testing.T) {
	p := New(Options{Workers: 2})
	if v := p.NewBatch(0).Verify(); v != nil {
		t.Fatalf("empty batch verdicts = %v, want nil", v)
	}
}

func TestBatchPopulatesCacheForLaterSingles(t *testing.T) {
	p := New(Options{Workers: 2})
	pubs, msgs, sigs := batchFixture(8)
	b := p.NewBatch(8)
	for i := range pubs {
		b.Add(pubs[i], msgs[i], sigs[i])
	}
	b.Verify()
	before := p.Stats().Verified
	for i := range pubs {
		if !p.VerifySig(pubs[i], msgs[i], sigs[i]) {
			t.Fatalf("VerifySig %d failed after batch", i)
		}
	}
	if v := p.Stats().Verified; v != before {
		t.Fatalf("batch results not cached: %d extra verifications", v-before)
	}
}

package merkle

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"github.com/seldel/seldel/internal/codec"
)

func leaves(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("leaf-%d", i))
	}
	return out
}

func TestEmptyTree(t *testing.T) {
	tr := Build(nil)
	if tr.Len() != 0 {
		t.Errorf("Len = %d, want 0", tr.Len())
	}
	if tr.Root().IsZero() {
		t.Error("empty root should not be zero hash")
	}
	if _, err := tr.Proof(0); !errors.Is(err, ErrEmptyTree) {
		t.Errorf("Proof on empty tree: %v, want ErrEmptyTree", err)
	}
	if Build(nil).Root() != Build([][]byte{}).Root() {
		t.Error("empty roots differ")
	}
}

func TestSingleLeaf(t *testing.T) {
	tr := Build(leaves(1))
	if tr.Root() != HashLeaf([]byte("leaf-0")) {
		t.Error("single-leaf root should equal the leaf hash")
	}
	p, err := tr.Proof(0)
	if err != nil {
		t.Fatalf("Proof: %v", err)
	}
	if len(p.Siblings) != 0 {
		t.Errorf("single-leaf proof has %d siblings", len(p.Siblings))
	}
	if !Verify(tr.Root(), []byte("leaf-0"), p) {
		t.Error("single-leaf proof rejected")
	}
}

func TestProofsAllSizes(t *testing.T) {
	for n := 1; n <= 33; n++ {
		ls := leaves(n)
		tr := Build(ls)
		for i := 0; i < n; i++ {
			p, err := tr.Proof(i)
			if err != nil {
				t.Fatalf("n=%d Proof(%d): %v", n, i, err)
			}
			if !Verify(tr.Root(), ls[i], p) {
				t.Errorf("n=%d proof for leaf %d rejected", n, i)
			}
		}
	}
}

func TestProofRejectsWrongLeaf(t *testing.T) {
	ls := leaves(7)
	tr := Build(ls)
	p, err := tr.Proof(3)
	if err != nil {
		t.Fatal(err)
	}
	if Verify(tr.Root(), []byte("forged"), p) {
		t.Error("forged leaf accepted")
	}
	// Wrong index with right data must also fail.
	p.Index = 4
	if Verify(tr.Root(), ls[3], p) {
		t.Error("proof accepted at wrong index")
	}
}

func TestProofRejectsWrongRoot(t *testing.T) {
	ls := leaves(5)
	tr := Build(ls)
	p, _ := tr.Proof(2)
	other := Build(leaves(6)).Root()
	if Verify(other, ls[2], p) {
		t.Error("proof accepted under wrong root")
	}
}

func TestProofRejectsTamperedSiblings(t *testing.T) {
	ls := leaves(8)
	tr := Build(ls)
	p, _ := tr.Proof(5)
	p.Siblings[0][0] ^= 0xFF
	if Verify(tr.Root(), ls[5], p) {
		t.Error("tampered proof accepted")
	}
}

func TestProofRejectsExtraSiblings(t *testing.T) {
	ls := leaves(4)
	tr := Build(ls)
	p, _ := tr.Proof(1)
	p.Siblings = append(p.Siblings, codec.HashBytes([]byte("extra")))
	if Verify(tr.Root(), ls[1], p) {
		t.Error("proof with extra siblings accepted")
	}
}

func TestProofIndexRange(t *testing.T) {
	tr := Build(leaves(4))
	for _, i := range []int{-1, 4, 100} {
		if _, err := tr.Proof(i); !errors.Is(err, ErrIndexRange) {
			t.Errorf("Proof(%d): %v, want ErrIndexRange", i, err)
		}
	}
}

func TestDistinctLeafSetsDistinctRoots(t *testing.T) {
	r1 := Build(leaves(4)).Root()
	r2 := Build(leaves(5)).Root()
	if r1 == r2 {
		t.Error("trees of different sizes share a root")
	}
	ls := leaves(4)
	ls[2] = []byte("mutated")
	if Build(ls).Root() == r1 {
		t.Error("mutated leaf set shares root")
	}
}

func TestLeafInteriorDomainSeparation(t *testing.T) {
	// A two-leaf tree's root must not equal the leaf hash of the
	// concatenated children (classic second-preimage construction).
	a, b := []byte("a"), []byte("b")
	tr := Build([][]byte{a, b})
	ha, hb := HashLeaf(a), HashLeaf(b)
	concat := append(append([]byte{}, ha[:]...), hb[:]...)
	if tr.Root() == HashLeaf(concat) {
		t.Error("interior node collides with a leaf hash")
	}
}

func TestBuildFromHashes(t *testing.T) {
	hs := []codec.Hash{
		codec.HashBytes([]byte("h0")),
		codec.HashBytes([]byte("h1")),
		codec.HashBytes([]byte("h2")),
	}
	tr := BuildFromHashes(hs)
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	p, err := tr.Proof(1)
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyLeafHash(tr.Root(), hs[1], p) {
		t.Error("hash-leaf proof rejected")
	}
	if BuildFromHashes(nil).Root() != Build(nil).Root() {
		t.Error("empty BuildFromHashes root differs from Build")
	}
}

func TestBuildFromHashesCopiesInput(t *testing.T) {
	hs := []codec.Hash{codec.HashBytes([]byte("a")), codec.HashBytes([]byte("b"))}
	tr := BuildFromHashes(hs)
	root := tr.Root()
	hs[0][0] ^= 0xFF
	if tr.Root() != root {
		t.Error("tree aliases caller's hash slice")
	}
}

// Property: for random leaf sets, every leaf's proof verifies and a
// mutated leaf's proof does not.
func TestQuickProofSoundness(t *testing.T) {
	f := func(raw [][]byte, pick uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		tr := Build(raw)
		i := int(pick) % len(raw)
		p, err := tr.Proof(i)
		if err != nil {
			return false
		}
		if !Verify(tr.Root(), raw[i], p) {
			return false
		}
		mutated := append(append([]byte{}, raw[i]...), 0x55)
		return !Verify(tr.Root(), mutated, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBuild1024(b *testing.B) {
	ls := leaves(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(ls)
	}
}

func BenchmarkProofVerify1024(b *testing.B) {
	ls := leaves(1024)
	tr := Build(ls)
	p, _ := tr.Proof(511)
	root := tr.Root()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Verify(root, ls[511], p) {
			b.Fatal("proof rejected")
		}
	}
}

// TestRootFromHashesMatchesTree pins RootFromHashes to the tree it does
// not build: for every leaf count up to 300, odd promotions at any level
// included, the root equals BuildFromHashes' and the reduction allocates
// at most its one scratch slice.
func TestRootFromHashesMatchesTree(t *testing.T) {
	hs := make([]codec.Hash, 300)
	for i := range hs {
		hs[i] = HashLeaf([]byte(fmt.Sprintf("leaf-%d", i)))
	}
	orig := slices.Clone(hs)
	for n := 0; n <= len(hs); n++ {
		in := hs[:n]
		if got, want := RootFromHashes(in), BuildFromHashes(in).Root(); got != want {
			t.Fatalf("n=%d: RootFromHashes %s, tree root %s", n, got, want)
		}
		if allocs := testing.AllocsPerRun(5, func() { RootFromHashes(in) }); allocs > 1 {
			t.Fatalf("n=%d: %.0f allocations, want at most 1", n, allocs)
		}
	}
	if !slices.Equal(hs, orig) {
		t.Fatal("RootFromHashes wrote into its input")
	}
}

// TestHashingAllocatesNothing pins the hashing at the bottom of every
// commitment to zero heap allocations: a leaf of an entry's size, and an
// interior node, which hashes one stack buffer and must equal the
// streamed domain-separated construction.
func TestHashingAllocatesNothing(t *testing.T) {
	leaf := bytes.Repeat([]byte{'e'}, 400)
	l, r := HashLeaf(leaf), HashLeaf([]byte("right"))
	if allocs := testing.AllocsPerRun(100, func() { HashLeaf(leaf) }); allocs != 0 {
		t.Errorf("HashLeaf of %d bytes: %v allocations, want 0", len(leaf), allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { hashInterior(l, r) }); allocs != 0 {
		t.Errorf("hashInterior: %v allocations, want 0", allocs)
	}
	h := sha256.New()
	h.Write([]byte{interiorPrefix})
	h.Write(l[:])
	h.Write(r[:])
	var want codec.Hash
	h.Sum(want[:0])
	if got := hashInterior(l, r); got != want {
		t.Errorf("hashInterior = %s, want %s", got, want)
	}
}

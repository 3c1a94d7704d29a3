package wire

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/seldel/seldel/internal/codec"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/verify"
)

// Fuzz targets for the decode surface every network byte crosses: a
// malformed or adversarial payload must draw an error, never a panic or
// an unbounded allocation, and every accepted payload must survive an
// encode/decode round trip unchanged. Seed corpora (valid payloads plus
// canned corruptions) are checked in under testdata/fuzz/ and can be
// regenerated with:
//
//	SELDEL_GEN_FUZZ_CORPUS=1 go test ./internal/wire/ -run TestGenerateFuzzCorpora

// fuzzMutations derives deterministic corruptions from a valid payload:
// a truncation, a flipped byte, trailing garbage, and degenerate inputs.
func fuzzMutations(valid []byte) [][]byte {
	out := [][]byte{valid}
	if len(valid) > 2 {
		out = append(out, valid[:len(valid)/2])
		flipped := append([]byte(nil), valid...)
		flipped[len(flipped)/3] ^= 0xff
		out = append(out, flipped)
		out = append(out, append(append([]byte(nil), valid...), 0xde, 0xad))
	}
	out = append(out, []byte{}, bytes.Repeat([]byte{0xff}, 16))
	return out
}

func syncRespSeeds() [][]byte {
	valid := EncodeSyncResp(SyncRespPayload{
		Blocks: [][]byte{[]byte("block-one"), []byte("block-two")},
	})
	seeds := fuzzMutations(valid)
	seeds = append(seeds, EncodeSyncResp(SyncRespPayload{}))
	// A count prefix far beyond MaxSyncBlocks with no data behind it.
	seeds = append(seeds, []byte{0xff, 0xff, 0xff, 0x7f})
	return seeds
}

func snapshotSeeds() [][]byte {
	valid := EncodeSnapshot(SnapshotPayload{
		OfferID: 5,
		Chunk:   0,
		Last:    true,
		Marker:  3,
		Head:    4,
		Blocks:  [][]byte{[]byte("marker-block"), []byte("head-block")},
	})
	seeds := fuzzMutations(valid)
	// Range/count mismatch: declared head does not cover the blocks.
	seeds = append(seeds, EncodeSnapshot(SnapshotPayload{
		OfferID: 5, Last: true, Marker: 9, Head: 2, Blocks: [][]byte{[]byte("x")},
	}))
	// A non-final middle chunk of a multi-chunk stream.
	seeds = append(seeds, EncodeSnapshot(SnapshotPayload{
		OfferID: 5, Chunk: 2, Marker: 10, Head: 11,
		Blocks: [][]byte{[]byte("a"), []byte("b")},
	}))
	return seeds
}

// offerChunkPrev is the fixed predecessor chunk that
// FuzzSnapshotOfferValidation checks fuzzed chunks against.
func offerChunkPrev() SnapshotPayload {
	return SnapshotPayload{
		OfferID: 77,
		Chunk:   1,
		Marker:  4,
		Head:    6,
	}
}

func offerValidationSeeds() [][]byte {
	prev := offerChunkPrev()
	// The one successor the fixed prev accepts.
	follows := EncodeSnapshot(SnapshotPayload{
		OfferID: prev.OfferID,
		Chunk:   prev.Chunk + 1,
		Last:    true,
		Marker:  prev.Head + 1,
		Head:    prev.Head + 2,
		Blocks:  [][]byte{[]byte("c7"), []byte("c8")},
	})
	seeds := fuzzMutations(follows)
	// Cross-offer interleave: right position, wrong stream.
	seeds = append(seeds, EncodeSnapshot(SnapshotPayload{
		OfferID: prev.OfferID + 1, Chunk: prev.Chunk + 1, Last: true,
		Marker: prev.Head + 1, Head: prev.Head + 1, Blocks: [][]byte{[]byte("x")},
	}))
	// Skipped chunk index.
	seeds = append(seeds, EncodeSnapshot(SnapshotPayload{
		OfferID: prev.OfferID, Chunk: prev.Chunk + 2, Last: true,
		Marker: prev.Head + 1, Head: prev.Head + 1, Blocks: [][]byte{[]byte("x")},
	}))
	// Gap in the block range.
	seeds = append(seeds, EncodeSnapshot(SnapshotPayload{
		OfferID: prev.OfferID, Chunk: prev.Chunk + 1, Last: true,
		Marker: prev.Head + 3, Head: prev.Head + 3, Blocks: [][]byte{[]byte("x")},
	}))
	return seeds
}

func lookupRespSeeds() [][]byte {
	valid := EncodeLookupResp(LookupRespPayload{
		ReqID:       11,
		Found:       true,
		Entry:       []byte("entry-bytes"),
		HolderBlock: []byte("header-bytes"),
		LeafIndex:   1,
		LeafCount:   4,
		ProofSibs:   [][]byte{bytes.Repeat([]byte{0xaa}, 32), bytes.Repeat([]byte{0xbb}, 32)},
		LeafBytes:   []byte("leaf"),
	})
	seeds := fuzzMutations(valid)
	seeds = append(seeds, EncodeLookupResp(LookupRespPayload{ReqID: 1}))
	return seeds
}

// envelopeSigner is the registered sender FuzzOpenEnvelope's seeds are
// sealed by.
func envelopeSigner() (*identity.Registry, *identity.KeyPair) {
	reg := identity.NewRegistry()
	kp := identity.Deterministic("node-1", "wire-test")
	if err := reg.RegisterKey(kp, identity.RoleMaster); err != nil {
		panic(err)
	}
	return reg, kp
}

func envelopeSeeds() [][]byte {
	_, kp := envelopeSigner()
	vote := SealEnvelope(kp, KindVote, EncodeVote(VotePayload{
		Number: 9, Hash: codec.Hash{0xab}, Marker: 6, Approve: true,
	}))
	flipped := append([]byte(nil), vote...)
	flipped[len(flipped)-1] ^= 0x01 // the signature's last byte
	return [][]byte{vote, vote[:len(vote)/2], flipped}
}

// FuzzOpenEnvelope drives the decoder every inter-node message passes
// first: a fuzzed envelope must draw ErrBadEnvelope or open, never
// panic, and one that opens must re-encode byte for byte, so a relayed
// envelope (vote evidence) is the bytes its sender signed.
func FuzzOpenEnvelope(f *testing.F) {
	for _, s := range envelopeSeeds() {
		f.Add(s)
	}
	reg, _ := envelopeSigner()
	pool := verify.New(verify.Options{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		env, err := OpenEnvelope(pool, reg, raw)
		if err != nil {
			if !errors.Is(err, ErrBadEnvelope) {
				t.Fatalf("rejection %v is not ErrBadEnvelope", err)
			}
			return
		}
		if got := EncodeEnvelope(env); !bytes.Equal(got, raw) {
			t.Fatalf("opened envelope re-encodes to %x, was %x", got, raw)
		}
	})
}

func FuzzDecodeSyncResp(f *testing.F) {
	for _, s := range syncRespSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		p, err := DecodeSyncResp(raw)
		if err != nil {
			return
		}
		if len(p.Blocks) > MaxSyncBlocks {
			t.Fatalf("accepted %d blocks past the cap", len(p.Blocks))
		}
		rt, err := DecodeSyncResp(EncodeSyncResp(p))
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if len(rt.Blocks) != len(p.Blocks) {
			t.Fatalf("round trip changed payload: %+v != %+v", rt, p)
		}
		for i := range p.Blocks {
			if !bytes.Equal(rt.Blocks[i], p.Blocks[i]) {
				t.Fatalf("round trip changed block %d", i)
			}
		}
	})
}

func FuzzDecodeSnapshot(f *testing.F) {
	for _, s := range snapshotSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		p, err := DecodeSnapshot(raw)
		if err != nil {
			return
		}
		// Accepted snapshots always satisfy the declared-range invariant.
		if p.Head < p.Marker || uint64(len(p.Blocks)) != p.Head-p.Marker+1 {
			t.Fatalf("accepted inconsistent range %d..%d with %d blocks", p.Marker, p.Head, len(p.Blocks))
		}
		rt, err := DecodeSnapshot(EncodeSnapshot(p))
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if rt.OfferID != p.OfferID || rt.Chunk != p.Chunk || rt.Last != p.Last ||
			rt.Marker != p.Marker || rt.Head != p.Head || len(rt.Blocks) != len(p.Blocks) {
			t.Fatalf("round trip changed payload: %+v != %+v", rt, p)
		}
	})
}

// FuzzSnapshotOfferValidation drives the chunk-continuity gate a node
// applies to every snapshot chunk after the first: a fuzzed chunk must
// either be rejected by decode, rejected by SnapshotChunkFollows, or
// satisfy the full successor contract against the fixed previous chunk.
func FuzzSnapshotOfferValidation(f *testing.F) {
	for _, s := range offerValidationSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		p, err := DecodeSnapshot(raw)
		if err != nil {
			return
		}
		prev := offerChunkPrev()
		if err := SnapshotChunkFollows(prev, p); err != nil {
			return
		}
		// Accepted as a successor: every continuity invariant must hold.
		if p.OfferID != prev.OfferID {
			t.Fatalf("accepted chunk from offer %d as successor of offer %d", p.OfferID, prev.OfferID)
		}
		if p.Chunk != prev.Chunk+1 {
			t.Fatalf("accepted chunk index %d after %d", p.Chunk, prev.Chunk)
		}
		if p.Marker != prev.Head+1 {
			t.Fatalf("accepted range starting at %d after head %d", p.Marker, prev.Head)
		}
		// And a chunk marked final must never accept a successor.
		final := prev
		final.Last = true
		if err := SnapshotChunkFollows(final, p); err == nil {
			t.Fatal("accepted a successor to a final chunk")
		}
	})
}

func FuzzDecodeLookupResp(f *testing.F) {
	for _, s := range lookupRespSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		p, err := DecodeLookupResp(raw)
		if err != nil {
			return
		}
		rt, err := DecodeLookupResp(EncodeLookupResp(p))
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if rt.ReqID != p.ReqID || rt.Found != p.Found || len(rt.ProofSibs) != len(p.ProofSibs) ||
			!bytes.Equal(rt.Entry, p.Entry) || !bytes.Equal(rt.LeafBytes, p.LeafBytes) {
			t.Fatalf("round trip changed payload: %+v != %+v", rt, p)
		}
	})
}

// TestGenerateFuzzCorpora rewrites the checked-in seed corpora. Guarded
// by an environment variable so a normal test run never touches them.
func TestGenerateFuzzCorpora(t *testing.T) {
	if os.Getenv("SELDEL_GEN_FUZZ_CORPUS") == "" {
		t.Skip("set SELDEL_GEN_FUZZ_CORPUS=1 to regenerate fuzz corpora")
	}
	for name, seeds := range map[string][][]byte{
		"FuzzDecodeSyncResp":          syncRespSeeds(),
		"FuzzDecodeSnapshot":          snapshotSeeds(),
		"FuzzDecodeLookupResp":        lookupRespSeeds(),
		"FuzzSnapshotOfferValidation": offerValidationSeeds(),
		"FuzzOpenEnvelope":            envelopeSeeds(),
	} {
		writeFuzzCorpus(t, name, seeds)
	}
}

// writeFuzzCorpus stores seeds in the `go test fuzz v1` file format the
// fuzzer loads from testdata/fuzz/<target>/.
func writeFuzzCorpus(t *testing.T, target string, seeds [][]byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

package wire

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"testing"
	"testing/quick"

	"github.com/seldel/seldel/internal/codec"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/verify"
)

func testRegistry(t *testing.T) (*identity.Registry, *identity.KeyPair) {
	t.Helper()
	reg := identity.NewRegistry()
	kp := identity.Deterministic("node-1", "wire-test")
	if err := reg.RegisterKey(kp, identity.RoleMaster); err != nil {
		t.Fatal(err)
	}
	return reg, kp
}

func TestEnvelopeRoundTrip(t *testing.T) {
	reg, kp := testRegistry(t)
	pool := verify.New(verify.Options{})
	body := []byte("payload bytes")
	raw := SealEnvelope(kp, KindBlock, body)
	env, err := OpenEnvelope(pool, reg, raw)
	if err != nil {
		t.Fatalf("OpenEnvelope: %v", err)
	}
	if env.Sender != "node-1" || env.Kind != KindBlock || !bytes.Equal(env.Body, body) {
		t.Errorf("env = %+v", env)
	}
}

func TestEnvelopeRejectsTampering(t *testing.T) {
	reg, kp := testRegistry(t)
	pool := verify.New(verify.Options{})
	raw := SealEnvelope(kp, KindVote, []byte("vote"))

	t.Run("garbage", func(t *testing.T) {
		if _, err := OpenEnvelope(pool, reg, []byte{1, 2, 3}); !errors.Is(err, ErrBadEnvelope) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("flipped body byte", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[len(bad)/2] ^= 0xFF
		if _, err := OpenEnvelope(pool, reg, bad); !errors.Is(err, ErrBadEnvelope) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("unknown sender", func(t *testing.T) {
		stranger := identity.Deterministic("stranger", "wire-test")
		raw := SealEnvelope(stranger, KindVote, []byte("vote"))
		if _, err := OpenEnvelope(pool, reg, raw); !errors.Is(err, ErrBadEnvelope) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("kind swap breaks signature", func(t *testing.T) {
		// Re-encode the same body+sig under a different kind.
		env, err := OpenEnvelope(pool, reg, raw)
		if err != nil {
			t.Fatal(err)
		}
		e := codec.NewEncoder(128)
		e.String(env.Sender)
		e.String(KindBlock) // was KindVote
		e.Bytes(env.Body)
		e.Bytes(env.Sig)
		if _, err := OpenEnvelope(pool, reg, e.Data()); !errors.Is(err, ErrBadEnvelope) {
			t.Errorf("err = %v", err)
		}
	})
}

// TestEnvelopeChecksThroughThePoolCache: the receivers of one broadcast
// share a pool, so only the first open of an envelope reaches the curve;
// a forged envelope is never cached and is rejected — with one curve
// check — on every open.
func TestEnvelopeChecksThroughThePoolCache(t *testing.T) {
	reg, kp := testRegistry(t)
	pool := verify.New(verify.Options{})
	raw := SealEnvelope(kp, KindVote, []byte("vote"))
	for i := 0; i < 3; i++ {
		if _, err := OpenEnvelope(pool, reg, raw); err != nil {
			t.Fatal(err)
		}
		if v := pool.Stats().Verified; v != 1 {
			t.Fatalf("open %d: Verified = %d, want 1", i+1, v)
		}
	}
	forged := append([]byte(nil), raw...)
	forged[len(forged)-ed25519.SignatureSize] ^= 0xFF // first signature byte
	for i := 1; i <= 3; i++ {
		if _, err := OpenEnvelope(pool, reg, forged); !errors.Is(err, ErrBadEnvelope) {
			t.Fatalf("forged open %d: err = %v, want ErrBadEnvelope", i, err)
		}
		if v := pool.Stats().Verified; v != uint64(1+i) {
			t.Fatalf("forged open %d: Verified = %d, want %d", i, v, 1+i)
		}
	}
}

func TestVotePayloadRoundTrip(t *testing.T) {
	v := VotePayload{Number: 8, Hash: codec.HashBytes([]byte("s")), Marker: 6, Approve: true}
	back, err := DecodeVote(EncodeVote(v))
	if err != nil {
		t.Fatal(err)
	}
	if back != v {
		t.Errorf("round trip %+v != %+v", back, v)
	}
	if _, err := DecodeVote([]byte{1}); err == nil {
		t.Error("garbage vote accepted")
	}
	if _, err := DecodeVote(append(EncodeVote(v), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestStatusPayloadRoundTrip(t *testing.T) {
	s := StatusPayload{ReqID: 7, HeadNumber: 42, HeadHash: codec.HashBytes([]byte("h")), Marker: 36, Forked: true}
	back, err := DecodeStatus(EncodeStatus(s))
	if err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Errorf("round trip %+v != %+v", back, s)
	}
	if _, err := DecodeStatus(nil); err == nil {
		t.Error("empty status accepted")
	}
}

func TestLookupPayloadsRoundTrip(t *testing.T) {
	req := LookupReqPayload{ReqID: 3, RefBlock: 9, RefEntry: 2}
	backReq, err := DecodeLookupReq(EncodeLookupReq(req))
	if err != nil {
		t.Fatal(err)
	}
	if backReq != req {
		t.Errorf("req round trip %+v", backReq)
	}

	resp := LookupRespPayload{
		ReqID:       3,
		Found:       true,
		Entry:       []byte("entry-bytes"),
		Carried:     true,
		HolderBlock: []byte("header-bytes"),
		LeafIndex:   1,
		LeafCount:   4,
		ProofSibs:   [][]byte{bytes.Repeat([]byte{1}, 32), bytes.Repeat([]byte{2}, 32)},
		LeafBytes:   []byte("leaf"),
	}
	backResp, err := DecodeLookupResp(EncodeLookupResp(resp))
	if err != nil {
		t.Fatal(err)
	}
	if backResp.ReqID != resp.ReqID || !backResp.Found || !backResp.Carried {
		t.Errorf("resp fields lost: %+v", backResp)
	}
	if len(backResp.ProofSibs) != 2 || !bytes.Equal(backResp.ProofSibs[1], resp.ProofSibs[1]) {
		t.Error("proof siblings lost")
	}
	if !bytes.Equal(backResp.LeafBytes, resp.LeafBytes) {
		t.Error("leaf bytes lost")
	}
	if _, err := DecodeLookupResp([]byte{9}); err == nil {
		t.Error("garbage response accepted")
	}
}

func TestLookupRespNotFound(t *testing.T) {
	resp := LookupRespPayload{ReqID: 5}
	back, err := DecodeLookupResp(EncodeLookupResp(resp))
	if err != nil {
		t.Fatal(err)
	}
	if back.Found {
		t.Error("not-found response decoded as found")
	}
}

func TestSyncPayloadsRoundTrip(t *testing.T) {
	req := SyncReqPayload{HeadNumber: 11}
	backReq, err := DecodeSyncReq(EncodeSyncReq(req))
	if err != nil {
		t.Fatal(err)
	}
	if backReq != req {
		t.Errorf("req round trip %+v", backReq)
	}

	resp := SyncRespPayload{Blocks: [][]byte{[]byte("b12"), []byte("b13")}}
	backResp, err := DecodeSyncResp(EncodeSyncResp(resp))
	if err != nil {
		t.Fatal(err)
	}
	if len(backResp.Blocks) != 2 || !bytes.Equal(backResp.Blocks[1], resp.Blocks[1]) {
		t.Errorf("resp blocks lost: %+v", backResp)
	}
	if _, err := DecodeSyncResp([]byte{1}); err == nil {
		t.Error("garbage sync response accepted")
	}
}

func TestSnapshotPayloadRoundTrip(t *testing.T) {
	p := SnapshotPayload{
		Marker: 6,
		Head:   8,
		Blocks: [][]byte{[]byte("b6"), []byte("b7"), []byte("b8")},
	}
	back, err := DecodeSnapshot(EncodeSnapshot(p))
	if err != nil {
		t.Fatal(err)
	}
	if back.Marker != 6 || back.Head != 8 || len(back.Blocks) != 3 {
		t.Errorf("round trip %+v", back)
	}
	if !bytes.Equal(back.Blocks[2], p.Blocks[2]) {
		t.Error("block bytes lost")
	}

	t.Run("range mismatch rejected", func(t *testing.T) {
		bad := SnapshotPayload{Marker: 6, Head: 9, Blocks: p.Blocks}
		if _, err := DecodeSnapshot(EncodeSnapshot(bad)); err == nil {
			t.Error("declared range 6..9 with 3 blocks accepted")
		}
	})
	t.Run("head below marker rejected", func(t *testing.T) {
		bad := SnapshotPayload{Marker: 9, Head: 6, Blocks: nil}
		if _, err := DecodeSnapshot(EncodeSnapshot(bad)); err == nil {
			t.Error("inverted range accepted")
		}
	})
	t.Run("garbage rejected", func(t *testing.T) {
		if _, err := DecodeSnapshot([]byte{3}); err == nil {
			t.Error("garbage snapshot accepted")
		}
	})
}

// Property: envelopes round-trip for arbitrary kinds and bodies.
func TestQuickEnvelopeRoundTrip(t *testing.T) {
	reg, kp := testRegistry(t)
	pool := verify.New(verify.Options{})
	f := func(kind string, body []byte) bool {
		raw := SealEnvelope(kp, kind, body)
		env, err := OpenEnvelope(pool, reg, raw)
		if err != nil {
			return false
		}
		return env.Kind == kind && bytes.Equal(env.Body, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

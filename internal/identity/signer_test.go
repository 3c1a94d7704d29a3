package identity_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/verify"
)

// Signatures are checked against the registry through a verification
// pool (verify.Pool.VerifySigner); these tests pin the identity errors
// that check returns.

func TestVerifyRejectsTamperedMessage(t *testing.T) {
	kp := identity.Deterministic("alpha", "t")
	reg := identity.NewRegistry()
	if err := reg.RegisterKey(kp, identity.RoleUser); err != nil {
		t.Fatal(err)
	}
	sig := kp.Sign([]byte("original"))
	if err := verify.New(verify.Options{}).VerifySigner(reg, "alpha", []byte("tampered"), sig); !errors.Is(err, identity.ErrBadSignature) {
		t.Errorf("VerifySigner tampered = %v, want ErrBadSignature", err)
	}
}

func TestVerifyRejectsWrongSigner(t *testing.T) {
	alpha := identity.Deterministic("alpha", "t")
	bravo := identity.Deterministic("bravo", "t")
	reg := identity.NewRegistry()
	if err := reg.RegisterKey(alpha, identity.RoleUser); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterKey(bravo, identity.RoleUser); err != nil {
		t.Fatal(err)
	}
	msg := []byte("entry")
	sig := bravo.Sign(msg)
	if err := verify.New(verify.Options{}).VerifySigner(reg, "alpha", msg, sig); !errors.Is(err, identity.ErrBadSignature) {
		t.Errorf("cross-signer VerifySigner = %v, want ErrBadSignature", err)
	}
}

func TestVerifyUnknownIdentity(t *testing.T) {
	reg := identity.NewRegistry()
	if err := verify.New(verify.Options{}).VerifySigner(reg, "ghost", []byte("m"), []byte("s")); !errors.Is(err, identity.ErrUnknownIdentity) {
		t.Errorf("VerifySigner unknown = %v, want ErrUnknownIdentity", err)
	}
}

// TestVerifyCacheRejectsCollidingTriple: a participant must not be able
// to make its own cached signature answer for another participant's
// (name, message, signature) triple by choosing a name whose bytes,
// concatenated with its message and signature, re-split into the
// victim's. Here the attacker's name is "v" + an 8-byte length + 248
// filler bytes: 257 bytes, so a one-byte length prefix would read it as
// len("v").
func TestVerifyCacheRejectsCollidingTriple(t *testing.T) {
	reg := identity.NewRegistry()
	pool := verify.New(verify.Options{CacheSize: 16})
	filler := bytes.Repeat([]byte{'x'}, 248)
	msgA := []byte("the attacker's own message")
	var lenA, lenB [8]byte
	binary.LittleEndian.PutUint64(lenA[:], uint64(len(msgA)))
	binary.LittleEndian.PutUint64(lenB[:], uint64(len(filler)+8+len(msgA)))
	name := string(slices.Concat([]byte("v"), lenB[:], filler))
	victim := identity.Deterministic("v", "cache-collision")
	attacker := identity.Deterministic(name, "cache-collision")
	for _, kp := range []*identity.KeyPair{victim, attacker} {
		if err := reg.RegisterKey(kp, identity.RoleUser); err != nil {
			t.Fatal(err)
		}
	}
	sig := attacker.Sign(msgA)
	if err := pool.VerifySigner(reg, name, msgA, sig); err != nil {
		t.Fatalf("attacker's own signature: %v", err)
	}
	if pool.VerifySigner(reg, name, msgA, sig) != nil || pool.Stats().CacheHits != 1 {
		t.Fatalf("attacker's signature not answered from the cache: %+v", pool.Stats())
	}
	msgB := slices.Concat(filler, lenA[:], msgA)
	if err := pool.VerifySigner(reg, "v", msgB, sig); !errors.Is(err, identity.ErrBadSignature) {
		t.Fatalf("re-split triple under %q: err = %v, want ErrBadSignature", "v", err)
	}
	// A signature of the wrong size never reaches the cache.
	if err := pool.VerifySigner(reg, name, msgA, append(sig, 0)); !errors.Is(err, identity.ErrBadSignature) {
		t.Fatalf("65-byte signature: err = %v, want ErrBadSignature", err)
	}
}

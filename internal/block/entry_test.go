package block

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"testing"
	"testing/quick"

	"github.com/seldel/seldel/internal/identity"
)

func signedData(t *testing.T, owner, payload string) *Entry {
	t.Helper()
	kp := identity.Deterministic(owner, "block-test")
	return NewData(owner, []byte(payload)).Sign(kp)
}

func TestEntrySignAndShape(t *testing.T) {
	e := signedData(t, "alpha", "login alpha tty1")
	if err := e.CheckShape(); err != nil {
		t.Fatalf("CheckShape: %v", err)
	}
	if !ed25519.Verify(identity.Deterministic("alpha", "block-test").Public(), e.SigningBytes(), e.Signature) {
		t.Error("signature invalid")
	}
}

func TestSignFillsOwnerFromSigner(t *testing.T) {
	kp := identity.Deterministic("bravo", "block-test")
	e := (&Entry{Kind: KindData, Payload: []byte("x")}).Sign(kp)
	if e.Owner != "bravo" {
		t.Errorf("Owner = %q, want bravo", e.Owner)
	}
}

func TestEntryShapeErrors(t *testing.T) {
	kp := identity.Deterministic("alpha", "block-test")
	tests := []struct {
		name  string
		entry *Entry
		want  error
	}{
		{"bad kind", &Entry{Kind: Kind(9), Owner: "a", Signature: []byte{1}}, ErrBadKind},
		{"no owner", &Entry{Kind: KindData, Signature: []byte{1}}, ErrNoOwner},
		{"unsigned", &Entry{Kind: KindData, Owner: "a"}, ErrUnsigned},
		{"deletion without target", NewDeletion("alpha", Ref{}).Sign(kp), ErrBadTarget},
		{
			"data with target",
			&Entry{Kind: KindData, Owner: "a", Signature: []byte{1}, Target: Ref{Block: 1}},
			ErrBadEntry,
		},
		{
			"data with cosigners",
			&Entry{Kind: KindData, Owner: "a", Signature: []byte{1}, CoSigners: []CoSignature{{Name: "x"}}},
			ErrBadEntry,
		},
		{
			"deletion with payload",
			&Entry{Kind: KindDeletion, Owner: "a", Signature: []byte{1}, Target: Ref{Block: 1}, Payload: []byte("x")},
			ErrBadEntry,
		},
		{
			"deletion with expiry",
			&Entry{Kind: KindDeletion, Owner: "a", Signature: []byte{1}, Target: Ref{Block: 1}, ExpireTime: 5},
			ErrBadEntry,
		},
		{
			"deletion with deps",
			&Entry{Kind: KindDeletion, Owner: "a", Signature: []byte{1}, Target: Ref{Block: 1}, DependsOn: []Ref{{Block: 1}}},
			ErrBadEntry,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.entry.CheckShape(); !errors.Is(err, tt.want) {
				t.Errorf("CheckShape = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestEntryEncodeRoundTrip(t *testing.T) {
	kp := identity.Deterministic("alpha", "block-test")
	dep := identity.Deterministic("dep", "block-test")
	entries := []*Entry{
		NewData("alpha", []byte("plain")).Sign(kp),
		NewTemporary("alpha", []byte("temp"), 88, 42).Sign(kp),
		NewData("alpha", []byte("linked")).WithDependsOn(Ref{Block: 3, Entry: 1}).Sign(kp),
		NewDeletion("alpha", Ref{Block: 3, Entry: 1}).AddCoSignature(dep).Sign(kp),
	}
	for i, e := range entries {
		back, err := DecodeEntry(e.Encode())
		if err != nil {
			t.Fatalf("entry %d: DecodeEntry: %v", i, err)
		}
		if !bytes.Equal(back.Encode(), e.Encode()) {
			t.Errorf("entry %d: round trip changed encoding", i)
		}
		if back.Hash() != e.Hash() {
			t.Errorf("entry %d: hash changed", i)
		}
	}
}

func TestDecodeEntryRejectsGarbage(t *testing.T) {
	inputs := [][]byte{
		nil,
		{1},
		bytes.Repeat([]byte{0xFF}, 40),
	}
	for i, in := range inputs {
		if _, err := DecodeEntry(in); err == nil {
			t.Errorf("input %d accepted", i)
		}
	}
	// Trailing bytes must be rejected.
	e := signedData(t, "alpha", "x")
	enc := append(e.Encode(), 0x00)
	if _, err := DecodeEntry(enc); err == nil {
		t.Error("trailing byte accepted")
	}
}

func TestTemporaryExpiry(t *testing.T) {
	tests := []struct {
		name        string
		expT, expB  uint64
		now, blk    uint64
		wantTmp     bool
		wantExpired bool
	}{
		{"no deadlines", 0, 0, 1000, 1000, false, false},
		{"time not reached", 50, 0, 49, 0, true, false},
		{"time reached", 50, 0, 50, 0, true, true},
		{"block not reached", 0, 10, 0, 9, true, false},
		{"block reached", 0, 10, 0, 10, true, true},
		{"either deadline fires", 50, 10, 0, 10, true, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			e := NewTemporary("a", []byte("x"), tt.expT, tt.expB)
			if got := e.IsTemporary(); got != tt.wantTmp {
				t.Errorf("IsTemporary = %v, want %v", got, tt.wantTmp)
			}
			if got := e.ExpiredAt(tt.now, tt.blk); got != tt.wantExpired {
				t.Errorf("ExpiredAt = %v, want %v", got, tt.wantExpired)
			}
		})
	}
}

func TestSigningBytesExcludeSignature(t *testing.T) {
	kp := identity.Deterministic("alpha", "block-test")
	e := NewData("alpha", []byte("x"))
	before := append([]byte(nil), e.SigningBytes()...)
	e.Sign(kp)
	if !bytes.Equal(before, e.SigningBytes()) {
		t.Error("signing bytes changed after signing")
	}
	// Co-signatures must not affect the owner's signing bytes either.
	d := NewDeletion("alpha", Ref{Block: 1, Entry: 0})
	db := append([]byte(nil), d.SigningBytes()...)
	d.AddCoSignature(kp)
	if !bytes.Equal(db, d.SigningBytes()) {
		t.Error("co-signature changed signing bytes")
	}
}

func TestSigningBytesBindAllFields(t *testing.T) {
	base := func() *Entry {
		return &Entry{Kind: KindData, Owner: "a", Payload: []byte("p"), ExpireTime: 1, ExpireBlock: 2, DependsOn: []Ref{{Block: 3, Entry: 4}}}
	}
	mutations := map[string]func(*Entry){
		"payload":     func(e *Entry) { e.Payload = []byte("q") },
		"owner":       func(e *Entry) { e.Owner = "b" },
		"expireTime":  func(e *Entry) { e.ExpireTime = 9 },
		"expireBlock": func(e *Entry) { e.ExpireBlock = 9 },
		"dependsOn":   func(e *Entry) { e.DependsOn[0].Entry = 9 },
		"kind":        func(e *Entry) { e.Kind = KindDeletion },
		"target":      func(e *Entry) { e.Target = Ref{Block: 7} },
	}
	ref := base().SigningBytes()
	for name, mutate := range mutations {
		e := base()
		mutate(e)
		if bytes.Equal(ref, e.SigningBytes()) {
			t.Errorf("mutation %q not reflected in signing bytes", name)
		}
	}
}

func TestCoSignatureVerifies(t *testing.T) {
	dep := identity.Deterministic("dep", "block-test")
	target := Ref{Block: 5, Entry: 2}
	e := NewDeletion("alpha", target).AddCoSignature(dep)
	cs := e.CoSigners[0]
	if cs.Name != "dep" || !ed25519.Verify(dep.Public(), CoSigningBytes(target), cs.Signature) {
		t.Errorf("co-signature by %q invalid", cs.Name)
	}
	if ed25519.Verify(dep.Public(), CoSigningBytes(Ref{Block: 6}), cs.Signature) {
		t.Error("co-signature verified for wrong target")
	}
}

func TestCloneIsDeep(t *testing.T) {
	kp := identity.Deterministic("alpha", "block-test")
	e := NewData("alpha", []byte("payload")).WithDependsOn(Ref{Block: 1}).Sign(kp)
	cp := e.Clone()
	cp.Payload[0] = 'X'
	cp.DependsOn[0].Block = 99
	cp.Signature[0] ^= 0xFF
	if e.Payload[0] == 'X' || e.DependsOn[0].Block == 99 {
		t.Error("Clone shares mutable state")
	}
	if e.Hash() == cp.Hash() {
		t.Error("mutated clone still hashes equal")
	}
}

func TestRefString(t *testing.T) {
	r := Ref{Block: 3, Entry: 1}
	if r.String() != "3/1" {
		t.Errorf("String = %q", r.String())
	}
	if r.IsZero() {
		t.Error("non-zero ref IsZero")
	}
	if !(Ref{}).IsZero() {
		t.Error("zero ref not IsZero")
	}
}

func TestKindStrings(t *testing.T) {
	if KindData.String() != "data" || KindDeletion.String() != "delete" {
		t.Error("kind strings wrong")
	}
	if Kind(9).Valid() || !KindData.Valid() {
		t.Error("kind validity wrong")
	}
}

// Property: entry encoding round-trips for arbitrary payload/owner and
// expiry combinations.
func TestQuickEntryRoundTrip(t *testing.T) {
	kp := identity.Deterministic("q", "block-test")
	f := func(payload []byte, expT, expB uint64, depBlock uint64, depEntry uint32) bool {
		e := NewTemporary("q", payload, expT, expB)
		if depBlock%2 == 0 {
			e.WithDependsOn(Ref{Block: depBlock, Entry: depEntry})
		}
		e.Sign(kp)
		back, err := DecodeEntry(e.Encode())
		if err != nil {
			return false
		}
		return back.Hash() == e.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

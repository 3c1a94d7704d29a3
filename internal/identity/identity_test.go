package identity

import (
	"crypto/ed25519"
	"errors"
	"sort"
	"testing"
)

func TestGenerateAndSign(t *testing.T) {
	kp, err := Generate("alpha")
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if kp.Name() != "alpha" {
		t.Errorf("Name = %q", kp.Name())
	}
	reg := NewRegistry()
	if err := reg.RegisterKey(kp, RoleUser); err != nil {
		t.Fatalf("RegisterKey: %v", err)
	}
	msg := []byte("login event")
	sig := kp.Sign(msg)
	info, ok := reg.Lookup("alpha")
	if !ok || !ed25519.Verify(info.Public, msg, sig) {
		t.Errorf("signature does not verify under the registered key (registered %v)", ok)
	}
}

func TestDeterministicIsReproducibleAndDomainSeparated(t *testing.T) {
	a1 := Deterministic("alpha", "seed")
	a2 := Deterministic("alpha", "seed")
	if !a1.Public().Equal(a2.Public()) {
		t.Error("same name+seed produced different keys")
	}
	b := Deterministic("bravo", "seed")
	if a1.Public().Equal(b.Public()) {
		t.Error("different names share a key")
	}
	other := Deterministic("alpha", "other-seed")
	if a1.Public().Equal(other.Public()) {
		t.Error("different seeds share a key")
	}
}

func TestRegistryDuplicate(t *testing.T) {
	reg := NewRegistry()
	kp := Deterministic("alpha", "t")
	if err := reg.RegisterKey(kp, RoleUser); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterKey(kp, RoleAdmin); !errors.Is(err, ErrDuplicateName) {
		t.Errorf("duplicate register = %v, want ErrDuplicateName", err)
	}
}

func TestRegistryRejectsInvalidInputs(t *testing.T) {
	reg := NewRegistry()
	kp := Deterministic("alpha", "t")
	if err := reg.Register("x", kp.Public(), Role(99)); !errors.Is(err, ErrInvalidRole) {
		t.Errorf("invalid role = %v", err)
	}
	if err := reg.Register("x", []byte{1, 2}, RoleUser); !errors.Is(err, ErrInvalidPublicKey) {
		t.Errorf("short key = %v", err)
	}
}

func TestRoles(t *testing.T) {
	tests := []struct {
		role  Role
		str   string
		valid bool
	}{
		{RoleUser, "user", true},
		{RoleAdmin, "admin", true},
		{RoleMaster, "master", true},
		{Role(0), "role(0)", false},
		{Role(77), "role(77)", false},
	}
	for _, tt := range tests {
		if got := tt.role.String(); got != tt.str {
			t.Errorf("String(%d) = %q, want %q", tt.role, got, tt.str)
		}
		if got := tt.role.Valid(); got != tt.valid {
			t.Errorf("Valid(%d) = %v, want %v", tt.role, got, tt.valid)
		}
	}
	if !RoleMaster.AtLeast(RoleAdmin) || RoleUser.AtLeast(RoleAdmin) {
		t.Error("AtLeast ordering wrong")
	}
}

func TestCanActFor(t *testing.T) {
	reg := NewRegistry()
	for name, role := range map[string]Role{
		"alpha": RoleUser, "bravo": RoleUser, "admin": RoleAdmin, "quorum": RoleMaster,
	} {
		if err := reg.RegisterKey(Deterministic(name, "t"), role); err != nil {
			t.Fatal(err)
		}
	}
	tests := []struct {
		requester, owner string
		want             bool
	}{
		{"alpha", "alpha", true},   // own entry
		{"alpha", "bravo", false},  // someone else's entry
		{"admin", "alpha", true},   // admin may act for anyone
		{"quorum", "bravo", true},  // master signature
		{"bravo", "quorum", false}, // user cannot act for master
	}
	for _, tt := range tests {
		got, err := reg.CanActFor(tt.requester, tt.owner)
		if err != nil {
			t.Fatalf("CanActFor(%s,%s): %v", tt.requester, tt.owner, err)
		}
		if got != tt.want {
			t.Errorf("CanActFor(%s,%s) = %v, want %v", tt.requester, tt.owner, got, tt.want)
		}
	}
	if _, err := reg.CanActFor("ghost", "alpha"); !errors.Is(err, ErrUnknownIdentity) {
		t.Errorf("unknown requester = %v", err)
	}
}

func TestNamesSortedAndLen(t *testing.T) {
	reg := NewRegistry()
	for _, n := range []string{"charlie", "alpha", "bravo"} {
		if err := reg.RegisterKey(Deterministic(n, "t"), RoleUser); err != nil {
			t.Fatal(err)
		}
	}
	names := reg.Names()
	want := []string{"alpha", "bravo", "charlie"}
	if len(names) != len(want) {
		t.Fatalf("Names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names = %v, want %v", names, want)
		}
	}
	if reg.Len() != 3 {
		t.Errorf("Len = %d", reg.Len())
	}
}

func TestRegistryCopiesPublicKey(t *testing.T) {
	reg := NewRegistry()
	kp := Deterministic("alpha", "t")
	pub := make([]byte, len(kp.Public()))
	copy(pub, kp.Public())
	if err := reg.Register("alpha", pub, RoleUser); err != nil {
		t.Fatal(err)
	}
	pub[0] ^= 0xFF // mutate caller's copy
	if info, _ := reg.Lookup("alpha"); !info.Public.Equal(kp.Public()) {
		t.Error("registry aliased caller key slice")
	}
}

func TestRoleOfAndLookup(t *testing.T) {
	reg := NewRegistry()
	if err := reg.RegisterKey(Deterministic("alpha", "t"), RoleAdmin); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Lookup("missing"); ok {
		t.Error("Lookup(missing) reported ok")
	}
	info, ok := reg.Lookup("alpha")
	if !ok || info.Name != "alpha" || info.Role != RoleAdmin {
		t.Errorf("Lookup = %+v, %v", info, ok)
	}
}

// Names returns all registered names in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.byName))
	for n := range r.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of registered participants.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byName)
}

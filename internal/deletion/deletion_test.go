package deletion

import (
	"errors"
	"testing"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/verify"
)

func setup(t *testing.T) (*identity.Registry, map[string]*identity.KeyPair) {
	t.Helper()
	reg := identity.NewRegistry()
	keys := make(map[string]*identity.KeyPair)
	for name, role := range map[string]identity.Role{
		"alpha": identity.RoleUser, "bravo": identity.RoleUser,
		"carol": identity.RoleUser, "admin": identity.RoleAdmin,
		"quorum": identity.RoleMaster,
	} {
		kp := identity.Deterministic(name, "del-test")
		if err := reg.RegisterKey(kp, role); err != nil {
			t.Fatal(err)
		}
		keys[name] = kp
	}
	return reg, keys
}

// cohesion applies the cohesion rule to req over the verdicts the chain
// would hand it: its co-signatures checked through a verification pool.
func cohesion(a *Authorizer, req, target *block.Entry, deps []Dependent) error {
	return a.checkCohesion(req, target, deps, PrecheckRequest(verify.New(verify.Options{}), a.registry, req))
}

// validate runs the full request pipeline as the chain does: precheck
// through a pool, then ValidateRequestPrechecked.
func validate(a *Authorizer, req, target *block.Entry, deps []Dependent) error {
	return a.ValidateRequestPrechecked(req, target, deps, PrecheckRequest(verify.New(verify.Options{}), a.registry, req))
}

func TestAuthorizeRequesterRoleBased(t *testing.T) {
	reg, _ := setup(t)
	a := NewAuthorizer(reg, PolicyRoleBased)
	tests := []struct {
		requester, owner string
		wantErr          error
	}{
		{"alpha", "alpha", nil},
		{"alpha", "bravo", ErrUnauthorized},
		{"admin", "bravo", nil},
		{"quorum", "bravo", nil},
		{"ghost", "bravo", ErrUnknownIdentity},
	}
	for _, tt := range tests {
		err := a.AuthorizeRequester(tt.requester, tt.owner)
		if tt.wantErr == nil && err != nil {
			t.Errorf("(%s,%s): %v", tt.requester, tt.owner, err)
		}
		if tt.wantErr != nil && !errors.Is(err, tt.wantErr) {
			t.Errorf("(%s,%s): %v, want %v", tt.requester, tt.owner, err, tt.wantErr)
		}
	}
}

func TestAuthorizeRequesterOwnerOnly(t *testing.T) {
	reg, _ := setup(t)
	a := NewAuthorizer(reg, PolicyOwnerOnly)
	if err := a.AuthorizeRequester("alpha", "alpha"); err != nil {
		t.Errorf("owner rejected: %v", err)
	}
	if err := a.AuthorizeRequester("admin", "alpha"); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("admin allowed under owner-only: %v", err)
	}
	if err := a.AuthorizeRequester("ghost", "ghost"); !errors.Is(err, ErrUnknownIdentity) {
		t.Errorf("unknown owner: %v", err)
	}
}

func TestDefaultPolicyIsRoleBased(t *testing.T) {
	reg, _ := setup(t)
	a := NewAuthorizer(reg, 0)
	if err := a.AuthorizeRequester("admin", "alpha"); err != nil {
		t.Errorf("default policy rejected admin: %v", err)
	}
}

func TestCheckCohesion(t *testing.T) {
	reg, keys := setup(t)
	a := NewAuthorizer(reg, PolicyRoleBased)
	target := block.Ref{Block: 3, Entry: 1}
	targetEntry := block.NewData("alpha", []byte("base")).Sign(keys["alpha"])

	t.Run("no dependents", func(t *testing.T) {
		req := block.NewDeletion("alpha", target).Sign(keys["alpha"])
		if err := cohesion(a, req, targetEntry, nil); err != nil {
			t.Errorf("cohesion: %v", err)
		}
	})
	t.Run("missing co-signature", func(t *testing.T) {
		req := block.NewDeletion("alpha", target).Sign(keys["alpha"])
		deps := []Dependent{{Ref: block.Ref{Block: 5}, Owner: "bravo"}}
		if err := cohesion(a, req, targetEntry, deps); !errors.Is(err, ErrMissingCoSign) {
			t.Errorf("err = %v, want ErrMissingCoSign", err)
		}
	})
	t.Run("valid co-signature", func(t *testing.T) {
		req := block.NewDeletion("alpha", target).AddCoSignature(keys["bravo"]).Sign(keys["alpha"])
		deps := []Dependent{{Ref: block.Ref{Block: 5}, Owner: "bravo"}}
		if err := cohesion(a, req, targetEntry, deps); err != nil {
			t.Errorf("cohesion: %v", err)
		}
	})
	t.Run("own dependents implicitly approved", func(t *testing.T) {
		req := block.NewDeletion("alpha", target).Sign(keys["alpha"])
		deps := []Dependent{{Ref: block.Ref{Block: 5}, Owner: "alpha"}}
		if err := cohesion(a, req, targetEntry, deps); err != nil {
			t.Errorf("cohesion: %v", err)
		}
	})
	t.Run("multiple dependents one missing", func(t *testing.T) {
		req := block.NewDeletion("alpha", target).AddCoSignature(keys["bravo"]).Sign(keys["alpha"])
		deps := []Dependent{
			{Ref: block.Ref{Block: 5}, Owner: "bravo"},
			{Ref: block.Ref{Block: 6}, Owner: "carol"},
		}
		err := cohesion(a, req, targetEntry, deps)
		if !errors.Is(err, ErrMissingCoSign) {
			t.Errorf("err = %v, want ErrMissingCoSign", err)
		}
	})
	t.Run("forged co-signature", func(t *testing.T) {
		req := block.NewDeletion("alpha", target).Sign(keys["alpha"])
		req.CoSigners = []block.CoSignature{{Name: "bravo", Signature: []byte("junk")}}
		deps := []Dependent{{Ref: block.Ref{Block: 5}, Owner: "bravo"}}
		if err := cohesion(a, req, targetEntry, deps); !errors.Is(err, ErrBadCoSignature) {
			t.Errorf("err = %v, want ErrBadCoSignature", err)
		}
	})
	t.Run("cosignature for wrong target", func(t *testing.T) {
		other := block.NewDeletion("alpha", block.Ref{Block: 9, Entry: 9}).AddCoSignature(keys["bravo"]).Sign(keys["alpha"])
		req := block.NewDeletion("alpha", target).Sign(keys["alpha"])
		req.CoSigners = other.CoSigners // signed for 9/9, not 3/1
		deps := []Dependent{{Ref: block.Ref{Block: 5}, Owner: "bravo"}}
		if err := cohesion(a, req, targetEntry, deps); !errors.Is(err, ErrBadCoSignature) {
			t.Errorf("err = %v, want ErrBadCoSignature", err)
		}
	})
	t.Run("self dependent rejected", func(t *testing.T) {
		req := block.NewDeletion("alpha", target).Sign(keys["alpha"])
		deps := []Dependent{{Ref: target, Owner: "alpha"}}
		if err := cohesion(a, req, targetEntry, deps); !errors.Is(err, ErrSelfDependent) {
			t.Errorf("err = %v, want ErrSelfDependent", err)
		}
	})
	t.Run("deletion target must be data", func(t *testing.T) {
		req := block.NewDeletion("alpha", target).Sign(keys["alpha"])
		notData := block.NewDeletion("alpha", block.Ref{Block: 1}).Sign(keys["alpha"])
		if err := cohesion(a, req, notData, nil); !errors.Is(err, ErrTargetNotData) {
			t.Errorf("err = %v, want ErrTargetNotData", err)
		}
	})
}

func TestValidateRequestPipeline(t *testing.T) {
	reg, keys := setup(t)
	a := NewAuthorizer(reg, PolicyRoleBased)
	target := block.Ref{Block: 3, Entry: 1}
	targetEntry := block.NewData("alpha", []byte("base")).Sign(keys["alpha"])

	// Wrong kind.
	notReq := block.NewData("alpha", []byte("x")).Sign(keys["alpha"])
	if err := validate(a, notReq, targetEntry, nil); err == nil {
		t.Error("data entry accepted as deletion request")
	}
	// Unauthorized requester fails before cohesion.
	req := block.NewDeletion("bravo", target).Sign(keys["bravo"])
	if err := validate(a, req, targetEntry, nil); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("err = %v, want ErrUnauthorized", err)
	}
	// Full pass.
	ok := block.NewDeletion("alpha", target).AddCoSignature(keys["bravo"]).Sign(keys["alpha"])
	deps := []Dependent{{Ref: block.Ref{Block: 5}, Owner: "bravo"}}
	if err := validate(a, ok, targetEntry, deps); err != nil {
		t.Errorf("validate: %v", err)
	}
}

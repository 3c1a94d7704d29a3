package deletion

import (
	"errors"
	"strings"
	"testing"

	"github.com/seldel/seldel/internal/block"
)

func TestAutoPolicyLevels(t *testing.T) {
	p := NewAutoPolicy(map[string]int{"officer": 2, "clerk": 1})
	if p.Level("officer") != 2 || p.Level("clerk") != 1 || p.Level("unknown") != 0 {
		t.Error("levels wrong")
	}
	if !p.Covers("officer", "clerk") || p.Covers("clerk", "officer") {
		t.Error("dominance wrong")
	}
	if !p.Covers("clerk", "unknown") {
		t.Error("unlisted participants must default to level 0")
	}
	if !strings.Contains(p.String(), "bell-lapadula") {
		t.Errorf("String = %q", p.String())
	}
}

func TestAutoPolicyClearsDominatedDependents(t *testing.T) {
	reg, keys := setup(t)
	auto := NewAutoPolicy(map[string]int{"alpha": 2, "bravo": 1})
	a := NewAuthorizer(reg, PolicyRoleBased).WithAutoPolicy(auto)

	target := block.Ref{Block: 3, Entry: 1}
	targetEntry := block.NewData("alpha", []byte("base")).Sign(keys["alpha"])
	deps := []Dependent{{Ref: block.Ref{Block: 5}, Owner: "bravo"}}

	// Without the auto policy this request needed bravo's co-signature;
	// alpha's clearance (2) dominates bravo (1), so it is auto-approved.
	req := block.NewDeletion("alpha", target).Sign(keys["alpha"])
	if err := cohesion(a, req, targetEntry, deps); err != nil {
		t.Errorf("dominated dependent not auto-cleared: %v", err)
	}
}

func TestAutoPolicyStillRequiresCoSignUpward(t *testing.T) {
	reg, keys := setup(t)
	auto := NewAutoPolicy(map[string]int{"alpha": 1, "bravo": 2})
	a := NewAuthorizer(reg, PolicyRoleBased).WithAutoPolicy(auto)

	target := block.Ref{Block: 3, Entry: 1}
	targetEntry := block.NewData("alpha", []byte("base")).Sign(keys["alpha"])
	deps := []Dependent{{Ref: block.Ref{Block: 5}, Owner: "bravo"}}

	// bravo outranks alpha: the co-signature rule still applies.
	req := block.NewDeletion("alpha", target).Sign(keys["alpha"])
	if err := cohesion(a, req, targetEntry, deps); !errors.Is(err, ErrMissingCoSign) {
		t.Errorf("err = %v, want ErrMissingCoSign", err)
	}
	// With bravo's co-signature it passes as usual.
	signed := block.NewDeletion("alpha", target).AddCoSignature(keys["bravo"]).Sign(keys["alpha"])
	if err := cohesion(a, signed, targetEntry, deps); err != nil {
		t.Errorf("co-signed upward deletion rejected: %v", err)
	}
}

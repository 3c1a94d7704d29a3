package deletion

import (
	"fmt"

	"github.com/seldel/seldel/internal/block"
)

// AutoPolicy is the automatic semantic-cohesion decision the paper
// sketches in §IV-D.2: "An automatic approach could be designed based on
// the principle of Bell-LaPadula model or Brewer-Nash Model."
//
// Participants carry clearance levels (à la Bell–LaPadula security
// levels). A deletion request is auto-approved — no dependent
// co-signatures needed — when the requester's clearance dominates the
// clearance of every live dependent's owner: information may be
// retracted by a subject at or above the level of everyone affected,
// mirroring the *-property's control of downward information flow.
// Dependents at a strictly higher level still require explicit
// co-signatures, exactly like the manual rule.
type AutoPolicy struct {
	levels map[string]int
}

// NewAutoPolicy builds a policy from participant clearance levels.
// Unlisted participants have level 0.
func NewAutoPolicy(levels map[string]int) *AutoPolicy {
	cp := make(map[string]int, len(levels))
	for name, lvl := range levels {
		cp[name] = lvl
	}
	return &AutoPolicy{levels: cp}
}

// Covers reports whether requester's clearance dominates owner's.
func (p *AutoPolicy) Covers(requester, owner string) bool {
	return p.levels[requester] >= p.levels[owner]
}

// filterUncovered returns the dependents NOT covered by the requester's
// clearance; only those still need explicit co-signatures.
func (p *AutoPolicy) filterUncovered(requester string, deps []Dependent) []Dependent {
	var out []Dependent
	for _, d := range deps {
		if !p.Covers(requester, d.Owner) {
			out = append(out, d)
		}
	}
	return out
}

// WithAutoPolicy attaches an automatic cohesion policy to the authorizer
// and returns it (builder style).
func (a *Authorizer) WithAutoPolicy(p *AutoPolicy) *Authorizer {
	a.auto = p
	return a
}

// checkCohesionWithAuto applies the auto policy before falling back to
// the manual co-signature rule.
func (a *Authorizer) effectiveDependents(req *block.Entry, dependents []Dependent) []Dependent {
	if a.auto == nil {
		return dependents
	}
	return a.auto.filterUncovered(req.Owner, dependents)
}

// String describes the policy for logs.
func (p *AutoPolicy) String() string {
	return fmt.Sprintf("bell-lapadula-auto(%d participants)", len(p.levels))
}

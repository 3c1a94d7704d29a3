// Package deletion implements the authorization and semantic-cohesion
// rules for deletion requests (§IV-D.1 and §IV-D.2).
//
// Authorization: a deletion request must be signed; a user may only
// request deletion of its own entries, while admins and the anchor-node
// quorum (master signature) may request deletion of any entry.
//
// Semantic cohesion: an entry on which later live entries depend may only
// be deleted if every dependent party approves with a co-signature;
// otherwise the dependents would become semantically orphaned without
// their owners' consent.
package deletion

import (
	"errors"
	"fmt"
	"sort"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/verify"
)

// Errors returned by request validation.
var (
	ErrUnauthorized    = errors.New("deletion: requester not authorized for target")
	ErrMissingCoSign   = errors.New("deletion: dependent party has not co-signed")
	ErrBadCoSignature  = errors.New("deletion: invalid co-signature")
	ErrTargetNotData   = errors.New("deletion: target is not a data entry")
	ErrSelfDependent   = errors.New("deletion: entry depends on itself")
	ErrUnknownIdentity = errors.New("deletion: unknown identity")
)

// Dependent describes one live entry that depends on the deletion target.
type Dependent struct {
	// Ref addresses the dependent entry.
	Ref block.Ref
	// Owner is the dependent entry's owner, whose co-signature is needed.
	Owner string
}

// Policy selects how strictly requester identity is checked.
type Policy uint8

const (
	// PolicyOwnerOnly allows only the entry owner itself (no role
	// escalation). Used by deployments without administrative roles.
	PolicyOwnerOnly Policy = iota + 1
	// PolicyRoleBased additionally allows Admin and Master roles to act
	// for any owner (the paper's role-based concept, §IV-D.1).
	PolicyRoleBased
)

// Authorizer validates deletion requests against an identity registry.
type Authorizer struct {
	registry *identity.Registry
	policy   Policy
	// auto, when set, is the Bell-LaPadula-style automatic cohesion
	// policy (§IV-D.2); see AutoPolicy.
	auto *AutoPolicy
}

// NewAuthorizer returns an authorizer using the given registry and policy.
func NewAuthorizer(reg *identity.Registry, policy Policy) *Authorizer {
	if policy == 0 {
		policy = PolicyRoleBased
	}
	return &Authorizer{registry: reg, policy: policy}
}

// AuthorizeRequester checks that requester may delete an entry owned by
// targetOwner (§IV-D.1: "a user is only allowed to submit delete requests
// for his own transactions", identified by comparing signatures/keys).
func (a *Authorizer) AuthorizeRequester(requester, targetOwner string) error {
	switch a.policy {
	case PolicyOwnerOnly:
		if requester != targetOwner {
			return fmt.Errorf("%w: %q is not owner %q", ErrUnauthorized, requester, targetOwner)
		}
		if _, ok := a.registry.Lookup(requester); !ok {
			return fmt.Errorf("%w: %q", ErrUnknownIdentity, requester)
		}
		return nil
	default: // PolicyRoleBased
		ok, err := a.registry.CanActFor(requester, targetOwner)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrUnknownIdentity, err)
		}
		if !ok {
			return fmt.Errorf("%w: %q may not delete entry of %q", ErrUnauthorized, requester, targetOwner)
		}
		return nil
	}
}

// CoSigCheck is the signature half of deletion authorization, computed
// WITHOUT any chain state: which of a request's co-signers provided a
// valid signature over the target reference. It exists so the
// cryptographic work can run outside the chain lock (through the
// verification pool) while the stateful cohesion decision — which
// owners actually need to have co-signed — runs under it, consuming
// only these precomputed verdicts.
//
// The zero value approves nobody, so a missing precheck fails closed:
// a dependent owner without a verified co-signature is reported as
// missing, never silently accepted.
type CoSigCheck struct {
	// Approved holds the co-signer names whose signatures verified.
	Approved map[string]bool
	// BadSigner is the first co-signer (in entry order) whose identity
	// is unknown or whose signature failed; empty when all verified.
	BadSigner string
}

// PrecheckRequest batch-verifies req's co-signatures through the
// verification pool. Call it without holding any chain lock; the
// result feeds ValidateRequestPrechecked.
func PrecheckRequest(pool *verify.Pool, reg *identity.Registry, req *block.Entry) CoSigCheck {
	return cosigCheckFrom(req, pool.CoSigners(reg, req))
}

// precheckSerial is the single-threaded reference precheck, used by the
// non-pooled ValidateRequest spec path.
func (a *Authorizer) precheckSerial(req *block.Entry) CoSigCheck {
	verdicts := make([]bool, len(req.CoSigners))
	msg := block.CoSigningBytes(req.Target)
	for i, cs := range req.CoSigners {
		verdicts[i] = a.registry.Verify(cs.Name, msg, cs.Signature) == nil
	}
	return cosigCheckFrom(req, verdicts)
}

func cosigCheckFrom(req *block.Entry, verdicts []bool) CoSigCheck {
	check := CoSigCheck{}
	if len(verdicts) > 0 {
		check.Approved = make(map[string]bool, len(verdicts))
	}
	for i, ok := range verdicts {
		name := req.CoSigners[i].Name
		if !ok {
			if check.BadSigner == "" {
				check.BadSigner = name
			}
			continue
		}
		check.Approved[name] = true
	}
	return check
}

// CheckCohesion verifies the semantic-cohesion rule for a deletion
// request req targeting target: every live dependent's owner must have
// provided a valid co-signature over the target reference. Dependents
// owned by the requester itself are implicitly approved (the requester
// already signed the request). Co-signatures are verified inline and
// serially; hot paths precheck through the pool instead
// (PrecheckRequest, then ValidateRequestPrechecked).
func (a *Authorizer) CheckCohesion(req *block.Entry, target *block.Entry, dependents []Dependent) error {
	return a.checkCohesion(req, target, dependents, a.precheckSerial(req))
}

// checkCohesion applies the cohesion rule over precomputed co-signature
// verdicts. It performs no signature verification, so it is safe to
// run while holding the chain lock.
func (a *Authorizer) checkCohesion(req *block.Entry, target *block.Entry, dependents []Dependent, pre CoSigCheck) error {
	if target.Kind != block.KindData {
		return ErrTargetNotData
	}
	if pre.BadSigner != "" {
		return fmt.Errorf("%w: by %q", ErrBadCoSignature, pre.BadSigner)
	}
	// An attached auto policy clears dependents whose owners the
	// requester's clearance dominates (§IV-D.2 automatic approach).
	dependents = a.effectiveDependents(req, dependents)
	// Every distinct dependent owner must be covered.
	missing := make(map[string]bool)
	for _, dep := range dependents {
		if dep.Ref == req.Target {
			return fmt.Errorf("%w: %s", ErrSelfDependent, dep.Ref)
		}
		if dep.Owner == req.Owner || pre.Approved[dep.Owner] {
			continue
		}
		missing[dep.Owner] = true
	}
	if len(missing) > 0 {
		names := make([]string, 0, len(missing))
		for n := range missing {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("%w: %v", ErrMissingCoSign, names)
	}
	return nil
}

// ValidateRequest runs the full §IV-D pipeline for one deletion request:
// requester authorization, then semantic cohesion over the live
// dependents of the target. Signatures verify serially on the calling
// goroutine — this is the executable spec; concurrent call sites use
// the precheck/validate split.
func (a *Authorizer) ValidateRequest(req *block.Entry, target *block.Entry, dependents []Dependent) error {
	return a.ValidateRequestPrechecked(req, target, dependents, a.precheckSerial(req))
}

// ValidateRequestPrechecked runs the stateful half of the §IV-D
// pipeline — requester authorization and semantic cohesion — against
// co-signature verdicts precomputed by PrecheckRequest. It verifies no
// signatures itself, which is what lets the chain call it while
// holding its lock.
func (a *Authorizer) ValidateRequestPrechecked(req *block.Entry, target *block.Entry, dependents []Dependent, pre CoSigCheck) error {
	if req.Kind != block.KindDeletion {
		return fmt.Errorf("deletion: request entry has kind %s", req.Kind)
	}
	if err := a.AuthorizeRequester(req.Owner, target.Owner); err != nil {
		return err
	}
	return a.checkCohesion(req, target, dependents, pre)
}

// Package identity implements key management, signing, and the
// role-based authorization model of §IV-D.1.
//
// Every data entry and every deletion request is signed by its submitter
// (Ed25519). The anchor-node quorum holds a shared "master" role with full
// administrative privileges; ordinary users may only act on their own
// entries. The paper's prototype used simplified string signatures; this
// implementation uses real asymmetric signatures, which is strictly
// stronger while preserving the same authorization semantics.
//
// A Registry maps names to public keys and roles; it checks no
// signature itself. Signatures are checked by the verify package, whose
// Pool looks the signer up here (verify.Pool.VerifySigner).
package identity

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Role is the privilege level of an identity in the role-based
// authorization concept of §IV-D.1.
type Role uint8

const (
	// RoleUser may submit entries and request deletion of its own entries.
	RoleUser Role = iota + 1
	// RoleAdmin may additionally request deletion of any user's entries.
	RoleAdmin
	// RoleMaster is the joint administrative role of the anchor-node
	// quorum ("master signature", §IV-D.1). It may approve any request.
	RoleMaster
)

// String returns the lowercase role name.
func (r Role) String() string {
	switch r {
	case RoleUser:
		return "user"
	case RoleAdmin:
		return "admin"
	case RoleMaster:
		return "master"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// Valid reports whether r is a defined role.
func (r Role) Valid() bool { return r >= RoleUser && r <= RoleMaster }

// AtLeast reports whether r grants at least the privileges of min.
func (r Role) AtLeast(min Role) bool { return r >= min }

// KeyPair is a named Ed25519 signing key.
type KeyPair struct {
	name    string
	public  ed25519.PublicKey
	private ed25519.PrivateKey
}

// Generate creates a fresh random key pair for the given participant name.
func Generate(name string) (*KeyPair, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("identity: generate key for %q: %w", name, err)
	}
	return &KeyPair{name: name, public: pub, private: priv}, nil
}

// Deterministic derives a reproducible key pair from the participant name
// and a domain seed. Used by tests and the deterministic experiments so
// runs are bit-for-bit repeatable.
func Deterministic(name, seed string) *KeyPair {
	sum := sha256.Sum256([]byte("seldel/identity/v1|" + seed + "|" + name))
	priv := ed25519.NewKeyFromSeed(sum[:])
	return &KeyPair{
		name:    name,
		public:  priv.Public().(ed25519.PublicKey),
		private: priv,
	}
}

// Name returns the participant name bound to the key.
func (k *KeyPair) Name() string { return k.name }

// Public returns the public key.
func (k *KeyPair) Public() ed25519.PublicKey { return k.public }

// Sign signs msg and returns a detached signature.
func (k *KeyPair) Sign(msg []byte) []byte {
	return ed25519.Sign(k.private, msg)
}

// Errors returned by the registry; ErrUnknownIdentity and
// ErrBadSignature are also what a signer check (verify.Pool.VerifySigner)
// returns.
var (
	ErrUnknownIdentity  = errors.New("identity: unknown identity")
	ErrDuplicateName    = errors.New("identity: name already registered")
	ErrBadSignature     = errors.New("identity: signature verification failed")
	ErrInvalidRole      = errors.New("identity: invalid role")
	ErrInvalidPublicKey = errors.New("identity: invalid public key")
)

// Info is the public record of a registered participant.
type Info struct {
	Name   string
	Public ed25519.PublicKey
	Role   Role
}

// Registry maps participant names to public keys and roles. It is the
// authorization database consulted by anchor nodes when validating entry
// signatures and deletion requests. Safe for concurrent use.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]Info
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]Info)}
}

// Register adds a participant. Registering an existing name fails.
func (r *Registry) Register(name string, pub ed25519.PublicKey, role Role) error {
	if !role.Valid() {
		return fmt.Errorf("%w: %d", ErrInvalidRole, role)
	}
	if len(pub) != ed25519.PublicKeySize {
		return fmt.Errorf("%w: length %d", ErrInvalidPublicKey, len(pub))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[name]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateName, name)
	}
	cp := make(ed25519.PublicKey, len(pub))
	copy(cp, pub)
	r.byName[name] = Info{Name: name, Public: cp, Role: role}
	return nil
}

// RegisterKey registers kp.Name() with the given role.
func (r *Registry) RegisterKey(kp *KeyPair, role Role) error {
	return r.Register(kp.Name(), kp.Public(), role)
}

// Lookup returns the public record for name.
func (r *Registry) Lookup(name string) (Info, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	info, ok := r.byName[name]
	return info, ok
}

// RoleOf returns the role of name, or false if unregistered.
func (r *Registry) RoleOf(name string) (Role, bool) {
	info, ok := r.Lookup(name)
	return info.Role, ok
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

// CanActFor implements the paper's authorization rule (§IV-D.1): a
// requester may act on an entry if it owns the entry, or if its role is
// Admin or Master ("full administrative privileges").
func (r *Registry) CanActFor(requester, owner string) (bool, error) {
	info, ok := r.Lookup(requester)
	if !ok {
		return false, fmt.Errorf("%w: %q", ErrUnknownIdentity, requester)
	}
	if requester == owner {
		return true, nil
	}
	return info.Role.AtLeast(RoleAdmin), nil
}

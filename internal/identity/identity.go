// Package identity implements key management, signatures, and the
// role-based authorization model of §IV-D.1.
//
// Every data entry and every deletion request is signed by its submitter
// (Ed25519). The anchor-node quorum holds a shared "master" role with full
// administrative privileges; ordinary users may only act on their own
// entries. The paper's prototype used simplified string signatures; this
// implementation uses real asymmetric signatures, which is strictly
// stronger while preserving the same authorization semantics.
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

// Errors returned by the registry.
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

	// Verified-signature cache, enabled by EnableVerifyCache. In
	// broadcast-heavy simulations many nodes share one registry and each
	// envelope is verified once per receiver; remembering (public key,
	// msg, sig) triples already proven valid turns n-1 of those n Ed25519
	// verifications into a hash lookup.
	cacheMu  sync.Mutex
	cache    map[[sha256.Size]byte]struct{}
	cacheCap int
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

// EnableVerifyCache turns on a bounded cache of signatures this registry
// has already verified successfully. capacity bounds remembered entries;
// when full, the cache resets wholesale (the working set of a live
// cluster is recent traffic, so a periodic cold start is cheap).
// capacity <= 0 disables the cache again. Only successes are cached:
// a forged signature is re-checked — and re-rejected — every time.
func (r *Registry) EnableVerifyCache(capacity int) {
	r.cacheMu.Lock()
	defer r.cacheMu.Unlock()
	if capacity <= 0 {
		r.cache = nil
		r.cacheCap = 0
		return
	}
	r.cache = make(map[[sha256.Size]byte]struct{}, capacity)
	r.cacheCap = capacity
}

// verifyCacheKey binds signer key, signature, and message into one
// digest. The key and the signature have fixed sizes (Verify rejects any
// other signature size before it gets here), so the one variable-length
// part comes last and no two triples hash the same bytes. Keying on the
// public key rather than the name leaves a participant no say over the
// prefix.
func verifyCacheKey(pub ed25519.PublicKey, msg, sig []byte) [sha256.Size]byte {
	h := sha256.New()
	h.Write(pub)
	h.Write(sig)
	h.Write(msg)
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// Verify checks that sig is a valid signature by name over msg.
func (r *Registry) Verify(name string, msg, sig []byte) error {
	info, ok := r.Lookup(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownIdentity, name)
	}
	if len(sig) != ed25519.SignatureSize {
		return fmt.Errorf("%w: signer %q: %d-byte signature", ErrBadSignature, name, len(sig))
	}
	r.cacheMu.Lock()
	enabled := r.cache != nil
	r.cacheMu.Unlock()
	var key [sha256.Size]byte
	if enabled {
		key = verifyCacheKey(info.Public, msg, sig)
		r.cacheMu.Lock()
		_, hit := r.cache[key]
		r.cacheMu.Unlock()
		if hit {
			return nil
		}
	}
	if !ed25519.Verify(info.Public, msg, sig) {
		return fmt.Errorf("%w: signer %q", ErrBadSignature, name)
	}
	if enabled {
		r.cacheMu.Lock()
		if r.cache != nil {
			if len(r.cache) >= r.cacheCap {
				r.cache = make(map[[sha256.Size]byte]struct{}, r.cacheCap)
			}
			r.cache[key] = struct{}{}
		}
		r.cacheMu.Unlock()
	}
	return nil
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

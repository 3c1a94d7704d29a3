package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"

	"github.com/seldel/seldel"
)

const (
	payloadBytes = 256
	ownerKeys    = 16
)

// payloadMagic opens every generated payload, so the erased-bytes scan
// finds candidate payloads in a store file with one bytes.Index pass and
// identifies each by the 8-byte id that follows. It is a constant: no
// seed or workload name is derivable from it.
var payloadMagic = [4]byte{0xF5, 'S', 'D', 'B'}

// generator derives every input from the seed alone: owner keys are
// fixed, payload bytes and owner choice come from a PCG stream keyed by
// (seed, entry index). Ed25519 signing is deterministic, so the same
// seed yields byte-identical signed entries.
type generator struct {
	seed uint64
	keys []*seldel.KeyPair
	// live is R: entry k expires once k+live further entries were
	// offered (see offeredClock).
	live uint64
}

func newGenerator(seed uint64, live int) *generator {
	g := &generator{seed: seed, live: uint64(live)}
	for i := 0; i < ownerKeys; i++ {
		g.keys = append(g.keys, seldel.DeterministicKey(fmt.Sprintf("owner%02d", i), "seldel-benchmark"))
	}
	return g
}

// registry returns a registry holding the owner keys as plain users
// plus any anchors (cluster workload) as masters.
func (g *generator) registry(anchors ...*seldel.KeyPair) (*seldel.Registry, error) {
	reg := seldel.NewRegistry()
	for _, k := range g.keys {
		if err := reg.RegisterKey(k, seldel.RoleUser); err != nil {
			return nil, err
		}
	}
	for _, k := range anchors {
		if err := reg.RegisterKey(k, seldel.RoleMaster); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

func (g *generator) stream(k int) *rand.Rand {
	return rand.New(rand.NewPCG(g.seed, uint64(k)))
}

// owner returns the index of entry k's owner key.
func (g *generator) owner(k int) int { return int(g.stream(k).Uint64() % ownerKeys) }

// payload returns entry k's 256 bytes: magic, id, seeded filler.
func (g *generator) payload(k int) []byte {
	r := g.stream(k)
	r.Uint64() // the owner draw
	p := make([]byte, payloadBytes)
	copy(p, payloadMagic[:])
	for off := 4; off < payloadBytes; off += 8 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], r.Uint64())
		copy(p[off:], w[:])
	}
	return p
}

// payloadID is the 8 bytes after the magic; the erased-bytes scan keys on it.
func payloadID(p []byte) uint64 { return binary.LittleEndian.Uint64(p[4:12]) }

// entry returns signed temporary entry k. Its deadline is in
// offeredClock units: it expires once `live` entries were offered after it.
func (g *generator) entry(k int) *seldel.Entry {
	key := g.keys[g.owner(k)]
	return seldel.NewTemporary(key.Name(), g.payload(k), uint64(k)+g.live+1, 0).Sign(key)
}

// pool holds pre-signed entries [0, n) as two pointer-free arenas, and
// builds the entry structs only when they are offered. A pool of a
// quarter million ready-made entries would be a pointer-rich heap of
// the generator's that every garbage collection of the process has to
// mark, slowing the system under test for the benchmark's own sake.
type pool struct {
	g        *generator
	n        int
	payloads []byte
	sigs     []byte
}

const sigBytes = 64

// sign signs entries [0, n) on every core; signing is client work, so
// it happens in set-up and never inside a timed window.
func (g *generator) sign(n int) *pool {
	p := &pool{g: g, n: n, payloads: make([]byte, n*payloadBytes), sigs: make([]byte, n*sigBytes)}
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < n; k += workers {
				e := g.entry(k)
				copy(p.payloads[k*payloadBytes:], e.Payload)
				copy(p.sigs[k*sigBytes:], e.Signature)
			}
		}(w)
	}
	wg.Wait()
	return p
}

func (p *pool) payload(k int) []byte {
	return p.payloads[k*payloadBytes : (k+1)*payloadBytes : (k+1)*payloadBytes]
}

// entry builds pre-signed entry k.
func (p *pool) entry(k int) *seldel.Entry {
	e := seldel.NewTemporary(p.g.keys[p.g.owner(k)].Name(), p.payload(k), uint64(k)+p.g.live+1, 0)
	e.Signature = p.sigs[k*sigBytes : (k+1)*sigBytes : (k+1)*sigBytes]
	return e
}

// entries builds pre-signed entries [k0, k0+n).
func (p *pool) entries(k0, n int) []*seldel.Entry {
	out := make([]*seldel.Entry, n)
	for i := range out {
		out[i] = p.entry(k0 + i)
	}
	return out
}

// deletion returns a deletion request for ref signed by owner index o.
// A valid request passes the victim's own owner; an invalid one passes
// any other owner, which the role-based policy must reject.
func (g *generator) deletion(o int, ref seldel.Ref) *seldel.Entry {
	key := g.keys[o]
	return seldel.NewDeletion(key.Name(), ref).Sign(key)
}

// inputHash digests the canonical signing bytes and signatures of
// entries [0, n): the generator test pins it per seed.
func (g *generator) inputHash(n int) [32]byte {
	h := sha256.New()
	for _, e := range g.sign(n).entries(0, n) {
		h.Write(e.SigningBytes())
		h.Write(e.Signature)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

package main

import (
	"math/rand/v2"
	"sync"
	"time"

	"github.com/seldel/seldel"
)

const (
	stateNone    uint8 = iota
	stateAcked         // receipt resolved; ref known
	stateVictim        // a deletion request for it was issued
	stateUnknown       // the request's reply was lost (overload): erased or not
)

// victim is one deletion request in flight between submission and
// physical erasure.
type victim struct {
	k        int
	ref      seldel.Ref
	owner    int
	valid    bool      // false: deliberately signed by the wrong owner
	submitAt time.Time // call time (open loop: scheduled time)
	reqBlock uint64    // block that sealed the request
}

// ackBook remembers every acknowledged data entry by its generator
// index k, so the run can choose victims among live entries and, at the
// end, account for every acknowledged reference.
type ackBook struct {
	mu      sync.Mutex
	refs    []seldel.Ref
	state   []uint8
	pending []*victim // approved, not yet erased
	erased  []*victim
	ids     map[uint64]bool // payload ids of erased victims
	unknown int             // deletion requests whose reply was lost
}

func newAckBook(n int) *ackBook {
	return &ackBook{refs: make([]seldel.Ref, n), state: make([]uint8, n), ids: make(map[uint64]bool)}
}

func (a *ackBook) ack(k int, ref seldel.Ref) {
	a.mu.Lock()
	a.refs[k], a.state[k] = ref, stateAcked
	a.mu.Unlock()
}

func (a *ackBook) ackBatch(k0 int, sealed []seldel.Sealed) {
	a.mu.Lock()
	for i, s := range sealed {
		a.refs[k0+i], a.state[k0+i] = s.Ref, stateAcked
	}
	a.mu.Unlock()
}

// pick chooses a victim uniformly among acknowledged entries in the
// youngest four fifths of the live window [offered-live, offered). The
// oldest fifth is left alone so that no victim can expire and be cut
// before its request is sealed, which would turn a valid request into a
// rejected one.
func (a *ackBook) pick(rng *rand.Rand, offered, live int) (k int, ref seldel.Ref, ok bool) {
	lo := offered - live*4/5
	if lo < 0 {
		lo = 0
	}
	if offered <= lo {
		return 0, seldel.Ref{}, false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	start := lo + rng.IntN(offered-lo)
	for i := 0; i < offered-lo; i++ {
		k = lo + (start-lo+i)%(offered-lo)
		if a.state[k] == stateAcked {
			a.state[k] = stateVictim
			return k, a.refs[k], true
		}
	}
	return 0, seldel.Ref{}, false
}

// lose records that the deletion request for entry k got no reply.
func (a *ackBook) lose(k int) {
	a.mu.Lock()
	a.state[k] = stateUnknown
	a.unknown++
	a.mu.Unlock()
}

func (a *ackBook) addPending(v *victim) {
	a.mu.Lock()
	a.pending = append(a.pending, v)
	a.mu.Unlock()
}

func (a *ackBook) pendingCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.pending)
}

// sweep moves every pending victim for which gone reports true to the
// erased list and returns them.
func (a *ackBook) sweep(gone func(seldel.Ref) bool) []*victim {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []*victim
	kept := a.pending[:0]
	for _, v := range a.pending {
		if gone(v.ref) {
			out = append(out, v)
		} else {
			kept = append(kept, v)
		}
	}
	a.pending = kept
	a.erased = append(a.erased, out...)
	return out
}

package consensus

import (
	"errors"
	"sort"
)

// This file implements the majority-vote primitive of §IV-C: "the quorum
// build a consensus about redefining the Genesis Block … By a majority
// vote, the quorum determines the new first Block and the time of the
// changeover." The anchor nodes count their votes on each summary block
// Σ, which carries that changeover, against this membership and
// threshold in internal/node/vote.go.

// ErrEmptyQuorum is returned by NewQuorum for an empty member list.
var ErrEmptyQuorum = errors.New("consensus: quorum has no members")

// Quorum is a fixed set of anchor-node identities with majority rule.
type Quorum struct {
	members map[string]bool
	ordered []string
}

// NewQuorum creates a quorum over the given member names (deduplicated).
func NewQuorum(members []string) (*Quorum, error) {
	if len(members) == 0 {
		return nil, ErrEmptyQuorum
	}
	q := &Quorum{members: make(map[string]bool, len(members))}
	for _, m := range members {
		if !q.members[m] {
			q.members[m] = true
			q.ordered = append(q.ordered, m)
		}
	}
	sort.Strings(q.ordered)
	return q, nil
}

// Members returns the sorted member names.
func (q *Quorum) Members() []string {
	out := make([]string, len(q.ordered))
	copy(out, q.ordered)
	return out
}

// Size returns the number of members.
func (q *Quorum) Size() int { return len(q.ordered) }

// Threshold returns the strict majority: floor(n/2)+1.
func (q *Quorum) Threshold() int { return len(q.ordered)/2 + 1 }

// Contains reports membership.
func (q *Quorum) Contains(name string) bool { return q.members[name] }

// Summary votes and equivocation evidence (§IV-B/C): every node builds
// Σ itself, announces its hash, and appends Σ once a majority agrees. It
// owns tallies, forked, equivocators, voteRetry and retryTimer, all
// guarded by mu; mu is never held across a send or a chain append.

package node

import (
	"sort"
	"time"

	"github.com/seldel/seldel/internal/attack"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/codec"
	"github.com/seldel/seldel/internal/wire"
)

// voteState tracks the quorum votes for one pending summary block.
type voteState struct {
	counts    map[codec.Hash]int
	voted     map[string]codec.Hash // sender → hash it voted for
	localHash codec.Hash
	localSet  bool
	applied   bool
	// retracted is set when a vote counted toward the applied round is
	// later retracted as an equivocator's: peers that discarded it first
	// may be stuck on the round.
	retracted bool
	// decided is closed once the round is decided (maybeApplySummary):
	// the summary is appended or the node found itself forked.
	decided chan struct{}
	// evidence keeps the raw signed vote envelopes seen per sender for
	// this round, keyed by claimed hash. Two entries for one sender are
	// proof of equivocation: both are relayable and independently
	// verifiable by any peer.
	evidence map[string]map[codec.Hash][]byte
	// relayed tracks which disagreeing (sender, hash) votes we already
	// forwarded as evidence, so relay-on-disagreement sends each at most
	// once.
	relayed map[string]map[codec.Hash]bool
}

// Forked reports whether the node detected divergence from the quorum.
func (n *Node) Forked() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.forked
}

// Equivocators returns the quorum members this node holds equivocation
// proof against (two conflicting signed votes for one round), sorted.
func (n *Node) Equivocators() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.equivocators))
	for name := range n.equivocators {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// afterAppend starts the summary-vote round if a summary slot is due.
func (n *Node) afterAppend() {
	c := n.Chain()
	if !c.NextIsSummary() {
		return
	}
	n.announceSummary(c)
}

// announceSummary computes the due summary block locally (§IV-B: every
// node builds Σ itself), records it as our position for the vote round,
// and emits the vote traffic the node's behaviour plans: an honest node
// broadcasts its vote, a withholder stays silent, an equivocator tells
// each half of the quorum a different hash (attack.PlanSummaryVotes).
// Safe to call repeatedly — re-announcement is the repair protocol for
// lost votes. With Config.VoteRetryInterval set, a retry timer re-runs
// this until the vote lands. After a store failure the node votes no
// more (a chain that appends nothing cannot stand behind a Σ), so
// neither this nor a retry sends anything.
func (n *Node) announceSummary(c *chain.Chain) {
	if c.StoreErr() != nil {
		return
	}
	local, err := c.BuildSummary()
	if err != nil {
		return
	}
	num := local.Header.Number
	marker := c.Marker() // marker before the shift; vote carries it for audit
	vote := wire.VotePayload{Number: num, Hash: local.Hash(), Marker: marker, Approve: true}

	n.mu.Lock()
	st := n.talliesFor(num)
	st.localHash = local.Hash()
	st.localSet = true
	n.mu.Unlock()

	peers := make([]string, 0, n.quorum.Size()-1)
	for _, m := range n.quorum.Members() {
		if m != n.name {
			peers = append(peers, m)
		}
	}
	sends, countSelf := attack.PlanSummaryVotes(n.byzantine, peers, vote)
	if n.ep != nil {
		for _, s := range sends {
			sealed := wire.SealEnvelope(n.key, wire.KindVote, wire.EncodeVote(s.Payload))
			if s.Peer == "" {
				n.ep.Broadcast(wire.KindVote, sealed)
			} else {
				_ = n.ep.Send(s.Peer, wire.KindVote, sealed)
			}
		}
	}
	if countSelf {
		n.recordVote(n.name, vote)
	} else {
		// Votes may already have arrived before our position was set;
		// re-evaluate the tally without announcing anything.
		n.maybeApplySummary(num)
	}
	if c.NextIsSummary() {
		n.armVoteRetry()
	}
}

// armVoteRetry schedules a vote re-announcement if self-driving retries
// are configured and none is already pending. The timer is one-shot and
// re-arms from its own firing while the summary stays pending, so a
// settled vote leaves no timer behind.
func (n *Node) armVoteRetry() {
	if n.voteRetry <= 0 || n.ep == nil {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed || n.retryTimer != nil {
		return
	}
	n.retryTimer = time.AfterFunc(n.voteRetry, n.voteRetryFire)
}

func (n *Node) voteRetryFire() {
	n.mu.Lock()
	n.retryTimer = nil
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return
	}
	c := n.Chain()
	if !c.NextIsSummary() {
		return
	}
	n.announceSummary(c) // re-arms while still pending
}

func (n *Node) talliesFor(num uint64) *voteState {
	st, ok := n.tallies[num]
	if !ok {
		st = &voteState{
			counts:   make(map[codec.Hash]int),
			voted:    make(map[string]codec.Hash),
			decided:  make(chan struct{}),
			evidence: make(map[string]map[codec.Hash][]byte),
			relayed:  make(map[string]map[codec.Hash]bool),
		}
		n.tallies[num] = st
	}
	return st
}

func (n *Node) handleVote(env wire.Envelope) {
	v, err := wire.DecodeVote(env.Body)
	if err != nil || !v.Approve {
		return
	}
	if !n.quorum.Contains(env.Sender) {
		return
	}
	if n.observeVote(env, v) {
		return // flagged equivocator (previously or just now): not counted
	}
	decided, _ := n.decided(v.Number)
	repeat := !n.recordVote(env.Sender, v)
	if _, retracted := n.decided(v.Number); repeat && !v.Repair && retracted {
		// The sender announces again a round we decided on votes since
		// retracted: it discarded them before they could count and is
		// still a summary behind. Serve it the blocks from that round on;
		// it appends the summary only if it equals its own.
		n.serveSync(env.Sender, v.Number)
		return
	}
	// A vote for a round beyond our head means we missed blocks: sync.
	if v.Number > n.Chain().Head().Number+1 {
		n.requestSync(env.Sender)
		return
	}
	// Answer an announcement (never an answer, so repair cannot loop)
	// only where our vote can be missing there: the sender repeats a
	// vote we already counted, so it is still pending and ours was lost,
	// or we decided the round and will not announce it again. While we
	// are pending, a first announcement goes unanswered: our own is on
	// its way, or goes out when we build Σ. A vote-withholding member
	// never answers.
	if !v.Repair && (repeat || decided) && n.byzantine != attack.VoteWithholding {
		n.answerVote(env.Sender, v.Number)
	}
}

// handleVoteEvidence ingests a relayed third-party vote: the body is the
// relayed sender's original signed envelope, verified against the same
// registry, so a relayer cannot fabricate votes — only repeat them. The
// inner vote flows through the same observation and tally path as a
// direct one (without triggering answers or further relays of relays),
// which is how conflicting votes shown to different halves of the quorum
// end up side by side at every member.
func (n *Node) handleVoteEvidence(env wire.Envelope) {
	c := n.Chain()
	inner, err := wire.OpenEnvelope(c.Verifier(), c.Registry(), env.Body)
	if err != nil || inner.Kind != wire.KindVote {
		return
	}
	v, err := wire.DecodeVote(inner.Body)
	if err != nil || !v.Approve {
		return
	}
	if !n.quorum.Contains(inner.Sender) || inner.Sender == n.name {
		return
	}
	if n.observeVote(inner, v) {
		return
	}
	n.recordVote(inner.Sender, v)
}

// observeVote is the equivocation screen on every counted vote. It
// archives the signed envelope as evidence for (round, sender, hash),
// flags the sender once two conflicting hashes are on file (retracting
// its counted vote and broadcasting both proofs), and relays any vote
// that disagrees with our own locally built summary so the rest of the
// quorum sees what we were told. Returns true when the vote must not be
// counted (sender already flagged, or flagged by this very vote).
func (n *Node) observeVote(env wire.Envelope, v wire.VotePayload) bool {
	n.mu.Lock()
	if n.equivocators[env.Sender] {
		n.mu.Unlock()
		return true
	}
	if env.Sender == n.name {
		n.mu.Unlock()
		return false
	}
	st := n.talliesFor(v.Number)
	byHash := st.evidence[env.Sender]
	if byHash == nil {
		byHash = make(map[codec.Hash][]byte)
		st.evidence[env.Sender] = byHash
	}
	if _, ok := byHash[v.Hash]; !ok && len(byHash) < 2 {
		byHash[v.Hash] = wire.EncodeEnvelope(env)
	}
	var proofs [][]byte
	if len(byHash) >= 2 {
		for _, raw := range byHash {
			proofs = append(proofs, raw)
		}
		n.markEquivocatorLocked(env.Sender)
	}
	var relay []byte
	if proofs == nil && st.localSet && v.Hash != st.localHash {
		seen := st.relayed[env.Sender]
		if seen == nil {
			seen = make(map[codec.Hash]bool)
			st.relayed[env.Sender] = seen
		}
		if !seen[v.Hash] {
			seen[v.Hash] = true
			relay = wire.EncodeEnvelope(env)
		}
	}
	n.mu.Unlock()

	if n.ep != nil {
		for _, raw := range proofs {
			n.ep.Broadcast(wire.KindVoteEvidence, wire.SealEnvelope(n.key, wire.KindVoteEvidence, raw))
		}
		if relay != nil {
			n.ep.Broadcast(wire.KindVoteEvidence, wire.SealEnvelope(n.key, wire.KindVoteEvidence, relay))
		}
	}
	return proofs != nil
}

// markEquivocatorLocked flags sender and retracts any votes of theirs
// already counted in open tallies. Caller holds mu. Applied rounds stay
// applied — the retraction protects undecided rounds. Conflicting
// minority hashes can never reach the majority threshold, so a decided
// round holds the summary every honest member built; but when it was
// decided with a vote now retracted, an honest peer that flagged the
// sender first may never decide it, and the round is marked retracted
// so that peer's next announcement of it is answered with the blocks
// (handleVote).
func (n *Node) markEquivocatorLocked(sender string) {
	if n.equivocators[sender] {
		return
	}
	n.equivocators[sender] = true
	for _, st := range n.tallies {
		if h, ok := st.voted[sender]; ok {
			if st.applied {
				st.retracted = true
			}
			st.counts[h]--
			if st.counts[h] <= 0 {
				delete(st.counts, h)
			}
			delete(st.voted, sender)
		}
	}
}

// answerVote unicasts our own vote for round num back to peer, marked as
// a repair answer; after a store failure it sends nothing, like
// announceSummary.
func (n *Node) answerVote(peer string, num uint64) {
	if n.ep == nil || n.StoreErr() != nil {
		return
	}
	n.mu.Lock()
	st := n.tallies[num]
	send := st != nil && st.localSet
	var local codec.Hash
	if send {
		local = st.localHash
	}
	n.mu.Unlock()
	if !send {
		return
	}
	vote := wire.VotePayload{
		Number: num, Hash: local, Marker: n.Chain().Marker(),
		Approve: true, Repair: true,
	}
	_ = n.ep.Send(peer, wire.KindVote, wire.SealEnvelope(n.key, wire.KindVote, wire.EncodeVote(vote)))
}

// recordVote counts sender's vote and applies the summary once it
// decides the round. It reports false, counting nothing, when sender
// has already voted in that round.
func (n *Node) recordVote(sender string, v wire.VotePayload) bool {
	n.mu.Lock()
	st := n.talliesFor(v.Number)
	if _, ok := st.voted[sender]; ok {
		n.mu.Unlock()
		return false
	}
	st.voted[sender] = v.Hash
	st.counts[v.Hash]++
	n.mu.Unlock()
	n.maybeApplySummary(v.Number)
	return true
}

// decided reports whether round num was decided here and, if so,
// whether with a vote since retracted as an equivocator's.
func (n *Node) decided(num uint64) (applied, retracted bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.tallies[num]
	if st == nil || !st.applied {
		return false, false
	}
	return true, st.retracted
}

// maybeApplySummary appends the locally built summary once a quorum
// majority voted for the same hash. A majority on a different hash means
// this node's state diverged: it marks itself forked (§IV-B: "In case of
// a failure, the hash of the blocks are different, which would result in
// a fork"). Either way the round's decided channel is then closed.
func (n *Node) maybeApplySummary(num uint64) {
	n.mu.Lock()
	st := n.tallies[num]
	if st == nil || st.applied || !st.localSet {
		n.mu.Unlock()
		return
	}
	threshold := n.quorum.Threshold()
	var winner codec.Hash
	decided := false
	for h, count := range st.counts {
		if count >= threshold {
			winner, decided = h, true
			break
		}
	}
	if !decided {
		n.mu.Unlock()
		return
	}
	st.applied = true
	local := st.localHash
	n.mu.Unlock()
	defer close(st.decided)

	if winner != local {
		n.mu.Lock()
		n.forked = true
		n.mu.Unlock()
		return
	}
	c := n.Chain()
	summary, err := c.BuildSummary()
	if err != nil {
		return // already appended via another path
	}
	if summary.Hash() != winner {
		n.mu.Lock()
		n.forked = true
		n.mu.Unlock()
		return
	}
	_ = c.AppendBlock(summary)
	// Clean up old tallies to bound memory.
	n.mu.Lock()
	for old := range n.tallies {
		if old+16 < num {
			delete(n.tallies, old)
		}
	}
	n.mu.Unlock()
}

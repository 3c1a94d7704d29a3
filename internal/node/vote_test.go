package node

import (
	"sync"
	"testing"

	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/consensus"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/netsim"
	"github.com/seldel/seldel/internal/simclock"
	"github.com/seldel/seldel/internal/wire"
)

// TestVoteRepairAnswersOnlyWhereAVoteCanBeMissing drives summary-vote
// repair by hand on a seven-member quorum (threshold four): two nodes,
// the announcer and the member, and five bare endpoints whose votes the
// test sends and whose inboxes it reads. The member's link to the
// announcer drops everything at first, so its announcement never
// arrives there. Then:
//
//   - a first announcement to a pending member draws no answer, because
//     the member's own announcement is on its way to the sender;
//   - once the link is back, the announcer's repeated announcement is
//     answered by the still pending member, and the announcer decides;
//   - a member that has decided answers a first announcement, because it
//     will not announce that round again.
func TestVoteRepairAnswersOnlyWhereAVoteCanBeMissing(t *testing.T) {
	net := netsim.New(netsim.Config{})
	t.Cleanup(net.Close)
	reg := identity.NewRegistry()
	names := []string{"anchor-0", "anchor-1", "anchor-2", "anchor-3", "anchor-4", "anchor-5", "anchor-6"}
	keys := make(map[string]*identity.KeyPair)
	for _, name := range names {
		keys[name] = identity.Deterministic(name, "vote-repair")
		if err := reg.RegisterKey(keys[name], identity.RoleMaster); err != nil {
			t.Fatal(err)
		}
	}
	quorum, err := consensus.NewQuorum(names)
	if err != nil {
		t.Fatal(err)
	}
	nodeFor := func(name string) *Node {
		nd, err := New(Config{
			Key: keys[name],
			Chain: chain.Config{
				SequenceLength: 3,
				Registry:       reg,
				Clock:          simclock.NewLogical(0),
			},
			Quorum:  quorum,
			Network: net,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nd.Close() })
		return nd
	}
	announcer, member := nodeFor("anchor-0"), nodeFor("anchor-1")

	// The bare endpoints note the repair answers they receive, by sender.
	var mu sync.Mutex
	answers := make(map[string][]string) // receiver → senders of answers
	eps := make(map[string]*netsim.Endpoint)
	for _, name := range names[2:] {
		handler := func(msg netsim.Message) {
			env, err := wire.OpenEnvelope(member.Chain().Verifier(), reg, msg.Payload)
			if err != nil || env.Kind != wire.KindVote {
				return
			}
			if v, err := wire.DecodeVote(env.Body); err == nil && v.Repair {
				mu.Lock()
				answers[name] = append(answers[name], env.Sender)
				mu.Unlock()
			}
		}
		if eps[name], err = net.Join(name, handler); err != nil {
			t.Fatal(err)
		}
	}
	answered := func(to string) []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), answers[to]...)
	}

	// The announcer fills the sequence; its blocks reach the member, and
	// both announce Σ. The member's vote is lost on the dropped link, so
	// the member counts two votes and the announcer one.
	net.SetLink("anchor-1", "anchor-0", netsim.LinkProfile{Loss: 1})
	for !announcer.Chain().NextIsSummary() {
		if _, err := announcer.AppendEmpty(); err != nil {
			t.Fatal(err)
		}
	}
	net.Flush()
	sigma, err := announcer.Chain().BuildSummary()
	if err != nil {
		t.Fatal(err)
	}
	if !member.Chain().NextIsSummary() || member.Chain().NextNumber() != sigma.Header.Number {
		t.Fatalf("member is at block %d, want the summary slot %d", member.Chain().NextNumber(), sigma.Header.Number)
	}
	vote := wire.VotePayload{
		Number: sigma.Header.Number, Hash: sigma.Hash(),
		Marker: announcer.Chain().Marker(), Approve: true,
	}
	announce := func(from, to string) {
		t.Helper()
		raw := wire.SealEnvelope(keys[from], wire.KindVote, wire.EncodeVote(vote))
		if err := eps[from].Send(to, wire.KindVote, raw); err != nil {
			t.Fatal(err)
		}
		net.Flush()
	}

	// First announcements to pending members: the announcer counts
	// three, the member three. Neither answers.
	announce("anchor-2", "anchor-0")
	announce("anchor-3", "anchor-0")
	announce("anchor-2", "anchor-1")
	for _, to := range []string{"anchor-2", "anchor-3"} {
		if got := answered(to); len(got) != 0 {
			t.Errorf("a first announcement from %s to a pending member drew answers from %v", to, got)
		}
	}
	if !announcer.Chain().NextIsSummary() || !member.Chain().NextIsSummary() {
		t.Fatal("a round was decided on three of seven votes")
	}

	// The link is back and the announcer announces again. The member
	// counted that vote already, so the announcer is still missing its
	// vote: the member answers, and the announcer decides on it.
	net.SetLink("anchor-1", "anchor-0", netsim.LinkProfile{})
	announcer.announceSummary(announcer.Chain())
	net.Flush()
	if announcer.Chain().NextIsSummary() {
		t.Fatal("the announcer did not decide after repeating its announcement to a pending member")
	}
	if !member.Chain().NextIsSummary() {
		t.Fatal("the member decided on three of seven votes")
	}

	// A fourth vote decides the member's round. A first announcement
	// after that is answered.
	announce("anchor-3", "anchor-1")
	if member.Chain().NextIsSummary() {
		t.Fatal("the member did not decide on four of seven votes")
	}
	announce("anchor-4", "anchor-1")
	if got := answered("anchor-4"); len(got) != 1 || got[0] != "anchor-1" {
		t.Errorf("a first announcement to a member that decided drew answers from %v, want one from anchor-1", got)
	}
}

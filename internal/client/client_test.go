package client_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/client"
	"github.com/seldel/seldel/internal/consensus"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/mempool"
	"github.com/seldel/seldel/internal/netsim"
	"github.com/seldel/seldel/internal/node"
	"github.com/seldel/seldel/internal/simclock"
)

// harness is a minimal anchor deployment for client tests.
type harness struct {
	net      *netsim.Network
	registry *identity.Registry
	nodes    []*node.Node
	cli      *client.Client
	userKey  *identity.KeyPair
}

func newHarness(t *testing.T, anchors int) *harness {
	t.Helper()
	h := &harness{
		net:      netsim.New(netsim.Config{}),
		registry: identity.NewRegistry(),
	}
	t.Cleanup(h.net.Close)
	names := make([]string, anchors)
	for i := range names {
		names[i] = fmt.Sprintf("anchor-%d", i)
	}
	quorum, err := consensus.NewQuorum(names)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		kp := identity.Deterministic(name, "client-test")
		if err := h.registry.RegisterKey(kp, identity.RoleMaster); err != nil {
			t.Fatal(err)
		}
		nd, err := node.New(node.Config{
			Key: kp,
			Chain: chain.Config{
				SequenceLength: 3,
				MaxSequences:   2,
				Registry:       h.registry,
				Clock:          simclock.NewLogical(0),
			},
			Quorum:  quorum,
			Network: h.net,
		})
		if err != nil {
			t.Fatal(err)
		}
		h.nodes = append(h.nodes, nd)
	}
	h.userKey = identity.Deterministic("user", "client-test")
	if err := h.registry.RegisterKey(h.userKey, identity.RoleUser); err != nil {
		t.Fatal(err)
	}
	cli, err := client.New(h.userKey, h.registry, h.net, names)
	if err != nil {
		t.Fatal(err)
	}
	cli.SetTimeout(300 * time.Millisecond)
	h.cli = cli
	return h
}

// write seals entries through anchor-0 — writes reach the chain through
// one node, never through the client — and lets the network settle.
func (h *harness) write(t *testing.T, entries ...*block.Entry) []mempool.Sealed {
	t.Helper()
	sealed, err := h.nodes[0].SubmitWait(context.Background(), entries...)
	if err != nil {
		t.Fatal(err)
	}
	h.net.Flush()
	return sealed
}

func TestClientEntryBuilders(t *testing.T) {
	h := newHarness(t, 1)
	data := h.cli.NewDataEntry([]byte("d"))
	if data.Kind != block.KindData || data.Owner != "user" || len(data.Signature) == 0 {
		t.Errorf("data entry = %+v", data)
	}
	tmp := h.cli.NewTemporaryEntry([]byte("t"), 5, 9)
	if tmp.ExpireTime != 5 || tmp.ExpireBlock != 9 {
		t.Errorf("temporary entry = %+v", tmp)
	}
	del := h.cli.NewDeletionRequest(block.Ref{Block: 1, Entry: 0})
	if del.Kind != block.KindDeletion || del.Target != (block.Ref{Block: 1, Entry: 0}) {
		t.Errorf("deletion entry = %+v", del)
	}
	if h.cli.Name() != "user" {
		t.Errorf("Name = %q", h.cli.Name())
	}
	if got := h.cli.Anchors(); len(got) != 1 || got[0] != "anchor-0" {
		t.Errorf("Anchors = %v", got)
	}
}

func TestQueryStatusHappyPath(t *testing.T) {
	h := newHarness(t, 3)
	h.write(t, h.cli.NewDataEntry([]byte("x")))
	status, err := h.cli.QueryStatus()
	if err != nil {
		t.Fatal(err)
	}
	if status.Agreeing != 3 || status.Queried != 3 {
		t.Errorf("status = %+v", status)
	}
	if status.HeadHash != h.nodes[0].Chain().HeadHash() {
		t.Error("head mismatch")
	}
}

func TestQueryStatusTimesOutWhenIsolated(t *testing.T) {
	h := newHarness(t, 2)
	h.cli.SetTimeout(50 * time.Millisecond)
	// Put the client alone in a partition: no responses arrive.
	h.net.Partition([]string{"user"})
	if _, err := h.cli.QueryStatus(); !errors.Is(err, client.ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
}

func TestLookupVerifiesProofs(t *testing.T) {
	h := newHarness(t, 2)
	ref := h.write(t, h.cli.NewDataEntry([]byte("prove me")))[0].Ref
	got, err := h.cli.Lookup("anchor-1", ref)
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if string(got.Entry.Payload) != "prove me" || got.Carried {
		t.Errorf("got = %+v", got)
	}
	if got.Holder.Number != ref.Block {
		t.Errorf("holder block = %d", got.Holder.Number)
	}
}

func TestLookupNotFound(t *testing.T) {
	h := newHarness(t, 1)
	if _, err := h.nodes[0].AppendEmpty(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.cli.Lookup("anchor-0", block.Ref{Block: 77, Entry: 0}); !errors.Is(err, client.ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

func TestLookupTimesOutOnDeadAnchor(t *testing.T) {
	h := newHarness(t, 2)
	h.cli.SetTimeout(50 * time.Millisecond)
	h.net.Partition([]string{"anchor-1"})
	if _, err := h.cli.Lookup("anchor-1", block.Ref{Block: 0, Entry: 0}); !errors.Is(err, client.ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
}

package experiments

import (
	"context"
	"fmt"
	"io"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/consensus"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/netsim"
	"github.com/seldel/seldel/internal/node"
	"github.com/seldel/seldel/internal/simclock"
)

// runCluster is E11: §IV-B — every node creates summary blocks itself
// ("the block do not need to be propagated by itself"); identical state
// yields bit-identical summaries, and "in case of a failure, the hash of
// the blocks are different, which would result in a fork". Expected
// shape: N honest nodes stay hash-identical across merge cycles; a node
// with corrupted deletion state diverges at the next summary and flags
// itself forked while the majority proceeds.
func runCluster(w io.Writer) error {
	const anchors = 4
	net := netsim.New(netsim.Config{})
	defer net.Close()
	registry := identity.NewRegistry()

	names := make([]string, anchors)
	keys := make(map[string]*identity.KeyPair, anchors)
	for i := range names {
		names[i] = fmt.Sprintf("anchor-%d", i)
		kp := identity.Deterministic(names[i], "seldel-experiments")
		if err := registry.RegisterKey(kp, identity.RoleMaster); err != nil {
			return err
		}
		keys[names[i]] = kp
	}
	userKey := identity.Deterministic("user", "seldel-experiments")
	if err := registry.RegisterKey(userKey, identity.RoleUser); err != nil {
		return err
	}
	quorum, err := consensus.NewQuorum(names)
	if err != nil {
		return err
	}
	nodes := make([]*node.Node, anchors)
	for i, name := range names {
		nodes[i], err = node.New(node.Config{
			Key: keys[name],
			Chain: chain.Config{
				SequenceLength: 3,
				MaxSequences:   2,
				Shrink:         chain.ShrinkAllButNewest,
				Registry:       registry,
				Clock:          simclock.NewLogical(0),
			},
			Quorum:  quorum,
			Network: net,
		})
		if err != nil {
			return err
		}
	}

	drive := func(payload string) error {
		if _, err := nodes[0].SubmitWait(context.Background(), block.NewData("user", []byte(payload)).Sign(userKey)); err != nil {
			return err
		}
		net.Flush()
		return nil
	}

	tw := newTable(w)
	fmt.Fprintln(tw, "round\thead\tidentical_heads\tmarker\tsummaries_built_locally")
	summaries := 0
	for round := 1; round <= 8; round++ {
		if err := drive(fmt.Sprintf("round-%d", round)); err != nil {
			return err
		}
		identical := true
		h := nodes[0].Chain().HeadHash()
		for _, n := range nodes[1:] {
			if n.Chain().HeadHash() != h {
				identical = false
			}
		}
		if nodes[0].Chain().Head().Kind == block.KindSummary {
			summaries++
		}
		fmt.Fprintf(tw, "%d\t%d\t%v\t%d\t%d\n",
			round, nodes[0].Chain().Head().Number, identical, nodes[0].Chain().Marker(), summaries)
		if !identical {
			return fmt.Errorf("honest cluster diverged at round %d", round)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// Fault injection: corrupt one node's deletion state.
	fmt.Fprintln(w, "\nfault injection: anchor-3 gets an unauthorized deletion mark")
	nodes[3].Chain().InjectMarkForTest(block.Ref{Block: 7, Entry: 0})
	for round := 9; round <= 12; round++ {
		if err := drive(fmt.Sprintf("round-%d", round)); err != nil {
			return err
		}
	}
	tw = newTable(w)
	fmt.Fprintln(tw, "node\tforked\thead\tmarker")
	for _, n := range nodes {
		fmt.Fprintf(tw, "%s\t%v\t%d\t%d\n",
			n.Name(), n.Forked(), n.Chain().Head().Number, n.Chain().Marker())
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if !nodes[3].Forked() {
		return fmt.Errorf("corrupted node failed to detect its fork")
	}
	for _, n := range nodes[:3] {
		if n.Forked() {
			return fmt.Errorf("honest node %s reports forked", n.Name())
		}
	}
	fmt.Fprintln(w, "shape: honest nodes bit-identical every round; the corrupted node's")
	fmt.Fprintln(w, "summary hash loses the quorum vote and it flags itself forked (§IV-B).")
	return nil
}

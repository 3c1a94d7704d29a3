// Cluster: a quorum of anchor nodes replicating the selective-deletion
// chain over a simulated network, rebuilt on the concurrent submission
// pipeline and snapshot-based synchronization.
//
// The walkthrough demonstrates the full cluster lifecycle:
//
//  1. Writes flow through Node.SubmitWait — the node's proposal
//     pipeline batches them into blocks, gossips the blocks, and the
//     quorum votes each summary block in (§IV-B/C).
//  2. A partitioned node misses a whole retention cycle: the majority
//     approves a deletion and physically truncates past it. After the
//     heal, the lagging node is behind the quorum's Genesis marker, so
//     a peer answers its sync request with the snapshot-anchored
//     status quo (marker + head + live blocks) and the node adopts it
//     through the chain restore pipeline — no genesis replay, and the
//     deleted entry is gone on every replica (§IV-C, §V-B.4).
//  3. A store-backed node restarts: its chain comes back from the
//     segment store's live suffix (from the Genesis marker on) and
//     catches up incrementally under its old name.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"github.com/seldel/seldel"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const anchors = 4
	net := seldel.NewNetwork(seldel.NetworkConfig{})
	defer net.Close()
	reg := seldel.NewRegistry()
	ctx := context.Background()

	// The last anchor persists its chain into a segment store, so it
	// can demonstrate the restart-from-snapshot path later.
	dir, err := os.MkdirTemp("", "seldel-cluster-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	segStore, err := seldel.NewSegmentStore(dir, seldel.SegmentOptions{})
	if err != nil {
		return err
	}
	defer segStore.Close()

	names := make([]string, anchors)
	nodes := make([]*seldel.Node, anchors)
	for i := range names {
		names[i] = fmt.Sprintf("anchor-%d", i)
	}
	quorum, err := seldel.NewQuorum(names)
	if err != nil {
		return err
	}
	// Every quorum member runs the identical chain parameters: a summary
	// block every 3rd block, at most 2 live sequences — so the Genesis
	// marker shifts (and prefixes physically die) quickly.
	nodeConfig := func(name string) (seldel.NodeConfig, error) {
		kp := seldel.DeterministicKey(name, "cluster-example")
		if err := reg.RegisterKey(kp, seldel.RoleMaster); err != nil {
			return seldel.NodeConfig{}, err
		}
		return seldel.NodeConfig{
			Key: kp,
			Chain: seldel.Config{
				SequenceLength: 3,
				MaxSequences:   2,
				Registry:       reg,
				Clock:          seldel.NewLogicalClock(0),
			},
			Quorum:  quorum,
			Network: net,
		}, nil
	}
	storedCfg := seldel.NodeConfig{}
	for i, name := range names {
		cfg, err := nodeConfig(name)
		if err != nil {
			return err
		}
		if i == anchors-1 {
			cfg.Store = segStore // the restartable member
			storedCfg = cfg
		}
		nodes[i], err = seldel.NewNode(cfg)
		if err != nil {
			return err
		}
	}

	user := seldel.DeterministicKey("alice", "cluster-example")
	if err := reg.RegisterKey(user, seldel.RoleUser); err != nil {
		return err
	}

	// Phase 1 — pipelined writes. SubmitWait batches entries into a
	// proposed block, gossips it, and resolves once sealed; the summary
	// vote runs underneath whenever a Σ slot comes due.
	write := func(payload string) (seldel.Ref, error) {
		sealed, err := nodes[0].SubmitWait(ctx,
			seldel.NewData("alice", []byte(payload)).Sign(user))
		if err != nil {
			return seldel.Ref{}, err
		}
		net.Flush() // settle gossip + votes before the next write
		return sealed[0].Ref, nil
	}
	victim, err := write("right to be forgotten")
	if err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		if _, err := write(fmt.Sprintf("record-%d", i)); err != nil {
			return err
		}
	}
	fmt.Printf("cluster heads after pipelined writes: head=%d marker=%d (victim sealed at %d/0)\n",
		nodes[0].Chain().Head().Number, nodes[0].Chain().Marker(), victim.Block)

	// Phase 2 — deletion propagation across a partition. anchor-1 is
	// isolated while the majority approves the deletion and truncates
	// past it.
	isolated := nodes[1]
	net.Partition([]string{isolated.Name()})
	fmt.Printf("\npartitioned %s; majority deletes %d/0 and keeps going …\n", isolated.Name(), victim.Block)
	if _, err := nodes[0].SubmitWait(ctx, seldel.NewDeletion("alice", victim).Sign(user)); err != nil {
		return err
	}
	net.Flush()
	for i := 0; i < 8; i++ {
		if _, err := write(fmt.Sprintf("during-%d", i)); err != nil {
			return err
		}
	}
	maj := nodes[0].Chain()
	fmt.Printf("majority: head=%d marker=%d (victim gone: %v)\n",
		maj.Head().Number, maj.Marker(), !resolves(nodes[0], victim))
	fmt.Printf("isolated: head=%d marker=%d (victim still present: %v) — behind the quorum marker\n",
		isolated.Chain().Head().Number, isolated.Chain().Marker(), resolves(isolated, victim))

	// Heal. The next gossiped block reveals the gap; since the isolated
	// node's head predates the majority's marker, a peer answers with
	// the snapshot payload and the node adopts the truncated chain.
	net.Heal()
	if _, err := write("after-heal"); err != nil {
		return err
	}
	if _, err := write("after-heal-2"); err != nil {
		return err
	}
	c := isolated.Chain()
	fmt.Printf("\nhealed: %s adopted the snapshot status quo — head=%d marker=%d, first live block=%d\n",
		isolated.Name(), c.Head().Number, c.Marker(), c.Blocks()[0].Header.Number)
	fmt.Printf("victim resolvable anywhere: %v (physically deleted cluster-wide)\n", anyResolves(nodes, victim))

	// Phase 3 — restart from the segment store. The store-backed node
	// leaves the network; on reopen its chain streams from the store's
	// Genesis marker, kept in MANIFEST and DELETIONS (live suffix only,
	// no genesis).
	stored := nodes[anchors-1]
	fmt.Printf("\nrestarting %s from its segment store …\n", stored.Name())
	if err := stored.Close(); err != nil {
		return err
	}
	if _, err := write("while-down"); err != nil {
		return err
	}
	restarted, err := seldel.NewNode(storedCfg)
	if err != nil {
		return err
	}
	nodes[anchors-1] = restarted
	rc := restarted.Chain()
	fmt.Printf("restored from snapshot: head=%d marker=%d, replayed %d live blocks (first=%d, no genesis replay)\n",
		rc.Head().Number, rc.Marker(), len(rc.Blocks()), rc.Blocks()[0].Header.Number)
	if _, err := write("after-restart"); err != nil {
		return err
	}
	fmt.Printf("caught up: head=%d matches majority=%v\n",
		restarted.Chain().Head().Number,
		restarted.Chain().HeadHash() == nodes[0].Chain().HeadHash())

	// A verifying client sees one consistent status quo across anchors.
	watcher := seldel.DeterministicKey("watcher", "cluster-example")
	if err := reg.RegisterKey(watcher, seldel.RoleUser); err != nil {
		return err
	}
	cli, err := seldel.NewClient(watcher, reg, net, names)
	if err != nil {
		return err
	}
	status, err := cli.QueryStatus()
	if err != nil {
		return err
	}
	fmt.Printf("\nclient status quo: head=%d marker=%d (%d/%d anchors agree)\n",
		status.HeadNumber, status.Marker, status.Agreeing, status.Queried)
	return nil
}

func resolves(n *seldel.Node, ref seldel.Ref) bool {
	_, _, ok := n.Chain().Lookup(ref)
	return ok
}

func anyResolves(nodes []*seldel.Node, ref seldel.Ref) bool {
	for _, n := range nodes {
		if resolves(n, ref) {
			return true
		}
	}
	return false
}

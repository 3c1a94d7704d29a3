package main

import (
	"fmt"
	"os"
	"time"

	"github.com/seldel/seldel"
)

const (
	clusterNodes  = 7
	clusterBatch  = 16
	clusterDelete = 0.05
	// restartNode is closed at one third of the window and restarted
	// from its own segment store at two thirds.
	restartNode = clusterNodes - 1
)

// clusterLatency is the injected one-way delay per node, in three
// groups. It is virtual time: Network.Flush advances a simulated clock
// instead of sleeping, so wall-clock numbers of this workload are
// processor time, not a WAN's.
var clusterLatency = [clusterNodes]time.Duration{
	2 * time.Millisecond, 2 * time.Millisecond, 2 * time.Millisecond,
	40 * time.Millisecond, 40 * time.Millisecond,
	120 * time.Millisecond, 120 * time.Millisecond,
}

// cluster is seven anchors on one simulated network. One client drives
// node 0 closed loop: SubmitWait, then Flush until every message,
// vote and catch-up exchange has been delivered.
type cluster struct {
	r     *run
	net   *seldel.Network
	nodes []*seldel.Node
	cfgs  []seldel.NodeConfig
	live  [clusterNodes]bool

	dir6 string
	seg6 *seldel.SegmentStore

	submits, flushes samples
	catchup          time.Duration
	catchupRounds    int
	restartedAt      time.Time
	syncBefore       uint64
}

func (r *run) startCluster() error {
	c := &cluster{r: r, net: seldel.NewNetwork(seldel.NetworkConfig{Seed: int64(r.opt.seed)})}
	names := make([]string, clusterNodes)
	keys := make([]*seldel.KeyPair, clusterNodes)
	for i := range names {
		names[i] = fmt.Sprintf("anchor-%d", i)
		keys[i] = seldel.DeterministicKey(names[i], "seldel-benchmark")
	}
	var err error
	if r.reg, err = r.gen.registry(keys...); err != nil {
		return err
	}
	quorum, err := seldel.NewQuorum(names)
	if err != nil {
		return err
	}
	if c.dir6, err = os.MkdirTemp(r.root, "node6-"); err != nil {
		return err
	}
	if c.seg6, err = seldel.NewSegmentStore(c.dir6, seldel.SegmentOptions{}); err != nil {
		return err
	}
	for i := range names {
		cfg := seldel.NodeConfig{
			Key: keys[i],
			Chain: seldel.Config{
				SequenceLength: sequenceLength,
				MaxSequences:   maxSequences,
				Shrink:         seldel.ShrinkMinimal,
				Registry:       r.reg,
				Clock:          r.clock,
				Verifier:       r.ver,
			},
			Quorum:  quorum,
			Network: c.net,
		}
		switch i {
		case 0:
			cfg.Store = r.store()
			if r.tr != nil {
				cfg.Engine = tracedEngine{seldel.NoOpEngine{}, r.tr}
			}
		case restartNode:
			cfg.Store = c.seg6
		}
		n, err := seldel.NewNode(cfg)
		if err != nil {
			return err
		}
		c.net.SetPeerLatency(names[i], clusterLatency[i])
		c.cfgs, c.nodes, c.live[i] = append(c.cfgs, cfg), append(c.nodes, n), true
	}
	c.nodes[0].Chain().AddListener(r.obs)
	r.cl, r.chain = c, c.nodes[0].Chain()
	return nil
}

// goneEverywhere reports whether ref resolves on no live node.
func (c *cluster) goneEverywhere(ref seldel.Ref) bool {
	for i, n := range c.nodes {
		if !c.live[i] {
			continue
		}
		if _, _, ok := n.Chain().Lookup(ref); ok {
			return false
		}
	}
	return true
}

// round is one client operation: the leader seals and gossips the
// batch, then the network runs to quiescence. The batch counts as
// replicated once every live node holds its block.
func (c *cluster) round(f flight, entries []*seldel.Entry) bool {
	r := c.r
	r.attempted.Add(1)
	sealed, err := c.nodes[0].SubmitWait(r.ctx, entries...)
	mid := time.Now()
	if err != nil {
		r.failed.Add(1)
		r.fail("cluster submit: %v", err)
		return false
	}
	c.net.Flush()
	end := time.Now()
	behind := false
	for i, n := range c.nodes {
		if c.live[i] && n.Chain().Head().Number < sealed[0].Block {
			behind = true
		}
	}
	if behind {
		r.failed.Add(1)
		r.fail("block %d not on every live node after Flush", sealed[0].Block)
		return false
	}
	if !c.restartedAt.IsZero() && c.catchup == 0 {
		c.catchupRounds++
		if c.nodes[restartNode].Chain().HeadHash() == c.nodes[0].Chain().HeadHash() {
			c.catchup = end.Sub(c.restartedAt)
		}
	}
	kind := "cluster.round"
	if f.dels != nil {
		kind = "cluster.delete"
		for i, v := range f.dels {
			r.settle(v, sealed[i].Mark.String(), sealed[i].Block)
		}
		if !f.start.Before(r.winStart) {
			r.marks.add(mid.Sub(f.start))
		}
	} else {
		r.acks.ackBatch(f.k0, sealed)
		if r.inWindow(f.start) {
			r.writes.addAt(end, end.Sub(f.start))
			r.writesOnOff[b2i(f.on)].add(end.Sub(f.start))
			c.submits.add(mid.Sub(f.start))
			c.flushes.add(end.Sub(mid))
			r.ackInWindow(f.n, end)
		}
	}
	if f.on {
		base := func(t time.Time) int64 { return int64(t.Sub(r.start)) }
		r.tr.op(opRec{ival: ival{base(f.start), base(mid)}, kind: kind, block: sealed[0].Block, on: true})
		r.tr.op(opRec{ival: ival{base(mid), base(end)}, kind: "cluster.flush", on: true})
	}
	r.sweepErased()
	return true
}

// rounds drives data rounds of n entries (and, at share, deletion
// rounds) until stop reports true or a round fails.
func (c *cluster) rounds(n int, share float64, stop func() bool, each func()) {
	r := c.r
	rng := r.rng(4)
	debt := 0.0
	for !stop() {
		f := flight{start: time.Now(), on: r.tr.active(), n: n}
		var entries []*seldel.Entry
		if debt >= 4 {
			debt -= 4
			if f.dels, entries = r.deletions(rng, 4, f.start); len(entries) == 0 {
				continue
			}
		} else {
			k0, ok := r.takeK(n)
			if !ok {
				return
			}
			f.k0, entries = k0, r.pool.entries(k0, n)
			debt += share * float64(n)
		}
		if !c.round(f, entries) {
			return
		}
		if each != nil {
			each()
		}
	}
}

func (c *cluster) preload(n int) error {
	c.rounds(256, 0, func() bool { return c.r.clock.offered()+256 > n }, nil)
	return c.r.err()
}

// stopNode closes the restartable node and its store, as a crash-free
// shutdown would.
func (c *cluster) stopNode() error {
	c.live[restartNode] = false
	if err := c.nodes[restartNode].Close(); err != nil {
		return err
	}
	return c.seg6.Close()
}

// startNode reopens the node's store and rejoins it under its old name;
// it catches up through the next rounds' gossip.
func (c *cluster) startNode() error {
	var err error
	if c.seg6, err = seldel.NewSegmentStore(c.dir6, seldel.SegmentOptions{}); err != nil {
		return err
	}
	cfg := c.cfgs[restartNode]
	cfg.Store = c.seg6
	n, err := seldel.NewNode(cfg)
	if err != nil {
		return err
	}
	c.nodes[restartNode], c.live[restartNode] = n, true
	c.restartedAt = time.Now()
	return nil
}

// driveCluster: 16-entry rounds with 5 % deletion requests; node 6 goes
// down at one third of the window and comes back at two thirds.
func (r *run) driveCluster() error {
	c := r.cl
	c.rounds(clusterBatch, clusterDelete, until(time.Now().Add(warmup)), nil)
	stopSamplers := r.startSamplers()
	deadline := r.window()
	third := r.winEnd.Sub(r.winStart) / 3
	phase := 0
	c.rounds(clusterBatch, clusterDelete, until(deadline), func() {
		switch since := time.Since(r.winStart); {
		case phase == 0 && since >= third:
			phase = 1
			if err := c.stopNode(); err != nil {
				r.fail("stop node %d: %v", restartNode, err)
			}
		case phase == 1 && since >= 2*third:
			phase = 2
			c.syncBefore = c.nodes[0].SyncStats().ChunksSent
			if err := c.startNode(); err != nil {
				r.fail("restart node %d: %v", restartNode, err)
			}
		}
	})
	r.closeWindow()
	stopSamplers()
	if phase != 2 && r.err() == nil {
		r.fail("window ended before node %d was restarted", restartNode)
	}
	limit := time.Now().Add(tailLimit)
	c.rounds(clusterBatch, 0, func() bool {
		return (r.acks.pendingCount() == 0 && c.catchup > 0) || time.Now().After(limit)
	}, nil)
	if n := r.acks.pendingCount(); n > 0 {
		r.fail("%d deletion requests not erased on every node %v after the window", n, tailLimit)
	}
	if c.catchup == 0 {
		r.fail("node %d did not catch up %v after the window", restartNode, tailLimit)
	}
	return r.err()
}

// flusher keeps the network delivering while something other than the
// round loop writes to node 0 (the HTTP probe): summary votes travel on
// virtual time and only move when somebody calls Flush.
func (c *cluster) flusher() (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			default:
				c.net.Flush()
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	return func() { close(quit); <-done; c.net.Flush() }
}

// agree checks that every live node ends on the same head.
func (c *cluster) agree() error {
	want := c.nodes[0].Chain().HeadHash()
	for i, n := range c.nodes {
		if c.live[i] && n.Chain().HeadHash() != want {
			return fmt.Errorf("node %d head %s differs from node 0 head %s", i, n.Chain().HeadHash(), want)
		}
	}
	return nil
}

func (c *cluster) close() error {
	var first error
	for i, n := range c.nodes {
		if !c.live[i] {
			continue
		}
		c.live[i] = false
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	c.net.Close()
	if err := c.seg6.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

package node

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"testing"

	"github.com/seldel/seldel/internal/attack"
	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/codec"
	"github.com/seldel/seldel/internal/consensus"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/netsim"
	"github.com/seldel/seldel/internal/simclock"
)

// The WAN suite: the cluster drills of the scenario harness scaled to
// 50-100 in-process anchor nodes on geo-latency links. Everything runs
// on virtual time (netsim delay heap + simclock), so a drill spanning
// minutes of simulated WAN traffic finishes in seconds of wall clock
// and its convergence-round counts are reproducible run to run.

// wanNodeCount is the cluster size for the WAN drills, overridable via
// SELDEL_WAN_NODES (the CI scenario-suite job pins it to 50).
func wanNodeCount(t *testing.T) int {
	t.Helper()
	if v := os.Getenv("SELDEL_WAN_NODES"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 5 {
			t.Fatalf("SELDEL_WAN_NODES=%q: want an integer >= 5", v)
		}
		return n
	}
	return 50
}

// newWANCluster builds n anchor nodes spread round-robin across the
// given geo topology, with deterministic link decisions from seed. The
// nodes' chains share the process-wide verification pool, whose cache
// collapses the n-fold re-verification of every broadcast envelope into
// one Ed25519 check cluster-wide, which is what makes 50-node vote
// rounds cheap enough to drill.
func newWANCluster(t *testing.T, n int, geo *netsim.Geo, seed int64, faults map[int]attack.Behavior) *cluster {
	t.Helper()
	cl := &cluster{
		net:      netsim.New(netsim.Config{Seed: seed}),
		registry: identity.NewRegistry(),
		keys:     make(map[string]*identity.KeyPair),
	}
	t.Cleanup(cl.net.Close)

	var anchorNames []string
	for i := 0; i < n; i++ {
		anchorNames = append(anchorNames, fmt.Sprintf("anchor-%d", i))
	}
	quorum, err := consensus.NewQuorum(anchorNames)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range anchorNames {
		kp := identity.Deterministic(name, "wan-test")
		if err := cl.registry.RegisterKey(kp, identity.RoleMaster); err != nil {
			t.Fatal(err)
		}
		cl.keys[name] = kp
	}
	for _, u := range []string{"alpha", "user"} {
		kp := identity.Deterministic(u, "wan-test")
		if err := cl.registry.RegisterKey(kp, identity.RoleUser); err != nil {
			t.Fatal(err)
		}
		cl.keys[u] = kp
	}
	if geo != nil {
		geo.AssignRoundRobin(anchorNames...)
		cl.net.SetGeo(geo)
	}
	for i, name := range anchorNames {
		nd, err := New(cl.wanNodeConfig(name, quorum, faults[i]))
		if err != nil {
			t.Fatal(err)
		}
		cl.nodes = append(cl.nodes, nd)
	}
	// Close whatever node object currently holds each slot — storm waves
	// replace entries in cl.nodes, and Close is idempotent.
	t.Cleanup(func() {
		for _, nd := range cl.nodes {
			nd.Close()
		}
	})
	return cl
}

func (cl *cluster) wanNodeConfig(name string, quorum *consensus.Quorum, b attack.Behavior) Config {
	return Config{
		Key: cl.keys[name],
		Chain: chain.Config{
			SequenceLength: 3,
			MaxSequences:   2,
			Shrink:         chain.ShrinkAllButNewest,
			Registry:       cl.registry,
			Clock:          simclock.NewLogical(0),
		},
		Quorum:    quorum,
		Network:   cl.net,
		Byzantine: b,
	}
}

// nodeByName finds the current node object for an endpoint name.
func (cl *cluster) nodeByName(name string) *Node {
	for _, nd := range cl.nodes {
		if nd.Name() == name {
			return nd
		}
	}
	return nil
}

// wanDeletionConvergence runs one full 3-way-partition deletion drill at
// n nodes and returns the post-heal convergence round count plus the
// converged head hash and marker — the determinism triple two identical
// runs must reproduce bit-for-bit.
//
// The deletion request lands while the cluster is split along its three
// region borders: no side holds the floor(n/2)+1 majority, so the
// summary carrying the truncation can pass nowhere and the victim entry
// must stay resolvable cluster-wide until the heal.
func wanDeletionConvergence(t *testing.T, n int, seed int64) (rounds int, head codec.Hash, marker uint64) {
	t.Helper()
	geo := netsim.ThreeRegions()
	cl := newWANCluster(t, n, geo, seed, nil)
	sc := netsim.NewScenario(cl.net)
	user := cl.keys["user"]

	var victim block.Ref
	_ = sc.Step("seed a victim entry", func() error {
		victim = cl.write(t, 0, cl.data("user", "right to be forgotten at WAN scale"))[0].Ref
		return nil
	})

	regions := geo.Regions()
	groups := make([][]string, len(regions))
	for i, r := range regions {
		groups[i] = geo.Members(r)
	}
	_ = sc.Partition("split along the three region borders", groups...)
	_ = sc.Step("deletion requested in the leader's region", func() error {
		// The leader's region seals the request and fillers for the slots
		// after it, then stalls at the summary: its region cannot raise a
		// majority.
		if _, err := cl.nodes[0].SubmitWait(context.Background(), block.NewDeletion("user", victim).Sign(user)); err != nil {
			return err
		}
		cl.net.Flush()
		var lastErr error
		for i := 0; i < 5 && lastErr == nil; i++ {
			_, lastErr = cl.nodes[0].AppendEmpty()
			cl.net.Flush()
		}
		if !errors.Is(lastErr, ErrSummaryPending) {
			return fmt.Errorf("leader region: AppendEmpty = %v, want ErrSummaryPending", lastErr)
		}
		for i := 0; i < 3; i++ {
			if _, err := cl.nodes[0].AppendEmpty(); !errors.Is(err, ErrSummaryPending) {
				return fmt.Errorf("summary unstuck without a majority: %v", err)
			}
			cl.net.Flush()
		}
		return nil
	})
	_ = sc.Check("no region executed the deletion", func() error {
		for _, nd := range cl.nodes {
			if !resolvable(nd, victim) {
				return fmt.Errorf("%s lost the victim without a quorum majority", nd.Name())
			}
			if nd.Forked() {
				return fmt.Errorf("%s reports forked during the partition", nd.Name())
			}
		}
		// The mark itself crossed no region border.
		for _, g := range groups[1:] {
			if nd := cl.nodeByName(g[0]); nd.Chain().IsMarked(victim) {
				return fmt.Errorf("%s saw the deletion mark across the partition", nd.Name())
			}
		}
		return nil
	})
	_ = sc.Heal("heal the partition")

	converged := func() bool {
		if cl.headsAndMarkersAgree() != nil {
			return false
		}
		if cl.nodes[0].Chain().Marker() <= victim.Block {
			return false
		}
		for _, nd := range cl.nodes {
			if !deleted(nd, victim) || nd.Forked() {
				return false
			}
		}
		return true
	}
	_ = sc.Step("converge on the truncated chain", func() error {
		for ; rounds < 60; rounds++ {
			if converged() {
				return nil
			}
			cl.rounds(t, 0, 1, fmt.Sprintf("post-heal-%d", rounds))
		}
		return fmt.Errorf("no convergence within 60 rounds (marker %d, victim block %d)",
			cl.nodes[0].Chain().Marker(), victim.Block)
	})
	_ = sc.Check("deletion held everywhere", func() error {
		for _, nd := range cl.nodes {
			if resolvable(nd, victim) {
				return fmt.Errorf("%s still resolves the deleted entry", nd.Name())
			}
			if err := nd.Chain().VerifyIntegrity(); err != nil {
				return fmt.Errorf("%s integrity: %w", nd.Name(), err)
			}
		}
		return nil
	})
	if sc.Err() != nil {
		for _, step := range sc.History() {
			t.Logf("step %-45s virtual=%-12v err=%v", step.Name, step.VirtualElapsed, step.Err)
		}
		t.Fatal(sc.Err())
	}
	return rounds, cl.nodes[0].Chain().HeadHash(), cl.nodes[0].Chain().Marker()
}

func TestWANThreeWayPartitionDeletionConverges(t *testing.T) {
	n := wanNodeCount(t)
	const seed = 42
	rounds, head, marker := wanDeletionConvergence(t, n, seed)
	t.Logf("%d nodes: converged in %d post-heal rounds (marker %d)", n, rounds, marker)
	if marker == 0 {
		t.Fatal("converged without ever shifting the marker")
	}
	// The drill runs under virtual time from a fixed seed, so the count
	// is a property of the protocol, not of the machine: more rounds
	// means healing got slower, fewer means the split stopped holding
	// the deletion back. Other node counts have other counts.
	if n == 50 && rounds != 2 {
		t.Errorf("50 nodes, seed %d: converged in %d post-heal rounds, pinned at 2", seed, rounds)
	}

	// Determinism gate: the identical drill — same node count, same
	// seed — must reproduce the convergence-round count and the
	// converged chain exactly.
	rounds2, head2, marker2 := wanDeletionConvergence(t, n, seed)
	if rounds2 != rounds || head2 != head || marker2 != marker {
		t.Fatalf("drill not deterministic: run1=(%d rounds, head %s, marker %d) run2=(%d rounds, head %s, marker %d)",
			rounds, head, marker, rounds2, head2, marker2)
	}
}

// runWANStorm is the crash-restart-storm drill body: waves of roughly a
// third of the followers crash (losing all local state), the survivors
// absorb writes, and every returning node — now behind the moving
// Genesis marker — must catch up through a chunked snapshot offer.
func runWANStorm(t *testing.T, n, waves int) {
	t.Helper()
	geo := netsim.ThreeRegions()
	cl := newWANCluster(t, n, geo, 7, nil)
	sc := netsim.NewScenario(cl.net)
	quorum := cl.nodes[0].quorum

	_ = sc.Step("build history past the first merge", func() error {
		cl.rounds(t, 0, 8, "warmup")
		if cl.nodes[0].Chain().Marker() == 0 {
			return fmt.Errorf("no marker shift during warmup; storm would be vacuous")
		}
		return nil
	})

	// Followers 1..n-1 are split into `waves` cohorts; wave w cycles
	// cohort w. Node 0 stays up as the driving proposer.
	cohort := func(wave int) []string {
		per := (n - 1) / waves
		var out []string
		for i := 1 + wave*per; i < 1+(wave+1)*per && i < n; i++ {
			out = append(out, fmt.Sprintf("anchor-%d", i))
		}
		return out
	}
	restarted := make(map[string]bool)
	_ = sc.Storm("crash-restart storm", netsim.Storm{
		Waves: waves,
		Nodes: cohort,
		Stop: func(name string) error {
			return cl.nodeByName(name).Close()
		},
		During: func(wave int) error {
			cl.rounds(t, 0, 3, fmt.Sprintf("storm-wave-%d", wave))
			return nil
		},
		Restart: func(name string) error {
			// State-loss restart: no store, fresh genesis, old name and
			// key — the worst-case rejoin the snapshot path must absorb.
			nd, err := New(cl.wanNodeConfig(name, quorum, attack.Honest))
			if err != nil {
				return err
			}
			for i := range cl.nodes {
				if cl.nodes[i].Name() == name {
					cl.nodes[i] = nd
				}
			}
			restarted[name] = true
			return nil
		},
	})
	_ = sc.Step("post-storm settle", func() error {
		cl.rounds(t, 0, 3, "post-storm")
		return nil
	})
	_ = sc.Check("every node converged, restarts via chunked snapshot", func() error {
		if err := cl.headsAndMarkersAgree(); err != nil {
			return err
		}
		for _, nd := range cl.nodes {
			if nd.Forked() {
				return fmt.Errorf("%s reports forked after the storm", nd.Name())
			}
		}
		for name := range restarted {
			st := cl.nodeByName(name).SyncStats()
			if st.OffersCompleted < 1 {
				return fmt.Errorf("restarted %s adopted no snapshot offer (stats %+v)", name, st)
			}
		}
		return nil
	})
	if sc.Err() != nil {
		for _, step := range sc.History() {
			t.Logf("step %-45s virtual=%-12v err=%v", step.Name, step.VirtualElapsed, step.Err)
		}
		t.Fatal(sc.Err())
	}
	if len(restarted) == 0 {
		t.Fatal("storm cycled no nodes")
	}
	t.Logf("%d nodes, %d waves: %d nodes crash-restarted and resynced", n, waves, len(restarted))
}

func TestWANCrashRestartStorm(t *testing.T) {
	runWANStorm(t, wanNodeCount(t), 3)
}

func TestWANCrashRestartStormHundredNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("100-node storm skipped in -short mode")
	}
	runWANStorm(t, 100, 2)
}

// Command seldel is an interactive demo of the selective-deletion
// blockchain: it replays the paper's §V logging scenario step by step,
// printing the chain in the console format of Figs. 6–8.
//
// Usage:
//
//	seldel                    # replay the paper scenario
//	seldel -blocks 30         # continue the workload for more cycles
//	seldel -cluster 4         # run the scenario through a 4-node cluster
//	seldel doctor -dir DIR    # cross-validate a store directory
//
// The doctor subcommand checks a persistent store directory's deletion
// manifest, marker file, and segment files against each other and
// flags any other file that could hold block bytes; -repair heals what the store's own recovery path can fix
// and hydrates a missing deletion record, -archive moves applied
// records to DELETIONS.archive.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"github.com/seldel/seldel"
	"github.com/seldel/seldel/internal/doctor"
	"github.com/seldel/seldel/internal/mempool"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "seldel:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) > 0 && args[0] == "doctor" {
		return runDoctor(args[1:])
	}
	fs := flag.NewFlagSet("seldel", flag.ContinueOnError)
	extra := fs.Int("blocks", 0, "extra filler blocks to append after the scenario")
	clusterSize := fs.Int("cluster", 0, "run through an n-node anchor cluster instead of a single chain")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *clusterSize > 0 {
		return runCluster(*clusterSize)
	}
	return runSingle(*extra)
}

// runDoctor cross-validates a store directory's durable deletion state.
// It exits non-zero (via the returned error) when issues remain after
// the run, so CI can gate on a clean report.
func runDoctor(args []string) error {
	fs := flag.NewFlagSet("seldel doctor", flag.ContinueOnError)
	dir := fs.String("dir", "", "store directory to examine (required)")
	repair := fs.Bool("repair", false, "complete interrupted truncations, heal torn tails, hydrate a missing deletion record")
	archive := fs.Bool("archive", false, "move applied deletion records to DELETIONS.archive (implies -repair)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		fs.Usage()
		return fmt.Errorf("doctor: -dir is required")
	}
	opts := doctor.Options{Repair: *repair || *archive, Archive: *archive}
	rep, err := doctor.Run(*dir, opts)
	if err != nil {
		return err
	}
	if err := rep.Write(os.Stdout); err != nil {
		return err
	}
	if !rep.Clean() {
		return fmt.Errorf("doctor: %s has unresolved issues", *dir)
	}
	return nil
}

// scenario drives the §V logging scenario on any entry sink.
type scenario struct {
	reg  *seldel.Registry
	keys map[string]*seldel.KeyPair
}

func newScenario() (*scenario, error) {
	s := &scenario{
		reg:  seldel.NewRegistry(),
		keys: make(map[string]*seldel.KeyPair),
	}
	for _, name := range []string{"ALPHA", "BRAVO", "CHARLIE"} {
		kp := seldel.DeterministicKey(name, "seldel-demo")
		if err := s.reg.RegisterKey(kp, seldel.RoleUser); err != nil {
			return nil, err
		}
		s.keys[name] = kp
	}
	return s, nil
}

func (s *scenario) login(user, terminal string) *seldel.Entry {
	payload := fmt.Sprintf("login %s %s ok", user, terminal)
	return seldel.NewData(user, []byte(payload)).Sign(s.keys[user])
}

func runSingle(extra int) error {
	s, err := newScenario()
	if err != nil {
		return err
	}
	chain, err := seldel.New(s.reg,
		seldel.WithSequenceLength(3),
		seldel.WithMaxSequences(2),
		seldel.WithShrink(seldel.ShrinkAllButNewest),
		seldel.WithClock(seldel.NewLogicalClock(0)),
	)
	if err != nil {
		return err
	}
	defer chain.Close()
	show := func(title string) {
		fmt.Printf("\n--- %s ---\n", title)
		_ = chain.Render(os.Stdout, &seldel.RenderOptions{ShowMarks: true})
	}

	// One SubmitWait per scenario step: the pipeline seals each step's
	// entries as one block, reproducing the figures exactly.
	ctx := context.Background()
	commit := func(entries ...*seldel.Entry) error {
		_, err := chain.SubmitWait(ctx, entries...)
		return err
	}
	if err := commit(s.login("ALPHA", "tty1")); err != nil {
		return err
	}
	if err := commit(s.login("ALPHA", "tty2"), s.login("BRAVO", "tty1")); err != nil {
		return err
	}
	if err := commit(s.login("CHARLIE", "tty1")); err != nil {
		return err
	}
	show("Fig. 6 — after three logins (summaries S2/S5 empty, nothing deleted)")

	del := seldel.NewDeletion("BRAVO", seldel.Ref{Block: 3, Entry: 1}).Sign(s.keys["BRAVO"])
	if err := commit(del); err != nil {
		return err
	}
	if err := commit(s.login("ALPHA", "tty3")); err != nil {
		return err
	}
	show("Fig. 7 — BRAVO's deletion executed; sequences 0+1 merged; marker -> 6")

	for i, pair := range [][2]string{{"ALPHA", "tty4"}, {"BRAVO", "tty2"}, {"CHARLIE", "tty2"}, {"ALPHA", "tty5"}} {
		if err := commit(s.login(pair[0], pair[1])); err != nil {
			return fmt.Errorf("cycle login %d: %w", i, err)
		}
	}
	show("Fig. 8 — one cycle ahead; the deletion request was never carried")

	for i := 0; i < extra; i++ {
		if _, err := chain.AppendEmpty(); err != nil {
			return err
		}
	}
	if extra > 0 {
		show(fmt.Sprintf("after %d extra filler blocks", extra))
	}
	st := chain.Stats()
	fmt.Printf("\nstats: appended=%d cut=%d live=%d forgotten=%d expired=%d rejected=%d\n",
		st.AppendedBlocks, st.CutBlocks, st.LiveBlocks,
		st.ForgottenEntries, st.ExpiredEntries, st.RejectedRequests)
	vs := chain.PipelineStats().Verify
	fmt.Printf("verify: fan-out=%d ed25519=%d batched=%d cache-hits=%d misses=%d\n",
		vs.Workers, vs.Verified, vs.Batched, vs.CacheHits, vs.CacheMisses)
	return nil
}

func runCluster(n int) error {
	s, err := newScenario()
	if err != nil {
		return err
	}
	net := seldel.NewNetwork(seldel.NetworkConfig{})
	defer net.Close()

	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("anchor-%d", i)
	}
	quorum, err := seldel.NewQuorum(names)
	if err != nil {
		return err
	}
	nodes := make([]*seldel.Node, n)
	for i, name := range names {
		kp := seldel.DeterministicKey(name, "seldel-demo")
		if err := s.reg.RegisterKey(kp, seldel.RoleMaster); err != nil {
			return err
		}
		nodes[i], err = seldel.NewNode(seldel.NodeConfig{
			Key: kp,
			Chain: seldel.Config{
				SequenceLength: 3,
				MaxSequences:   2,
				Shrink:         seldel.ShrinkAllButNewest,
				Registry:       s.reg,
				Clock:          seldel.NewLogicalClock(0),
			},
			Quorum:  quorum,
			Network: net,
		})
		if err != nil {
			return err
		}
	}
	// One SubmitWait per scenario step through anchor-0, which seals the
	// step's entries as one block in the order given; the flush lets
	// every peer append it and vote on any summary it makes due.
	ctx := context.Background()
	step := func(entries ...*seldel.Entry) ([]seldel.Sealed, error) {
		sealed, err := nodes[0].SubmitWait(ctx, entries...)
		net.Flush()
		return sealed, err
	}
	for _, entries := range [][]*seldel.Entry{
		{s.login("ALPHA", "tty1")},
		{s.login("ALPHA", "tty2"), s.login("BRAVO", "tty1")},
		{s.login("CHARLIE", "tty1")},
	} {
		if _, err := step(entries...); err != nil {
			return err
		}
	}
	del, err := step(seldel.NewDeletion("BRAVO", seldel.Ref{Block: 3, Entry: 1}).Sign(s.keys["BRAVO"]))
	if err != nil {
		return err
	}
	if del[0].Mark != mempool.MarkApproved {
		return fmt.Errorf("cluster: BRAVO's deletion of 3/1 came back %v, want approved", del[0].Mark)
	}
	if _, err := step(s.login("ALPHA", "tty3")); err != nil {
		return err
	}
	fmt.Printf("cluster of %d anchors after the Fig. 7 scenario:\n", n)
	head := nodes[0].Chain().HeadHash()
	for _, nd := range nodes {
		fmt.Printf("  %s: head=%d hash=%s marker=%d forked=%v\n",
			nd.Name(), nd.Chain().Head().Number, nd.Chain().HeadHash(),
			nd.Chain().Marker(), nd.Forked())
		if nd.Chain().HeadHash() != head {
			return fmt.Errorf("cluster: %s ended on head %s, %s on %s", nd.Name(), nd.Chain().HeadHash(), nodes[0].Name(), head)
		}
	}
	fmt.Println("\nchain as seen by", nodes[n-1].Name(), "(built its summaries locally):")
	return nodes[n-1].Chain().Render(os.Stdout, &seldel.RenderOptions{ShowMarks: true})
}

package experiments

import (
	"context"
	"fmt"
	"io"

	"github.com/seldel/seldel/internal/audit"
	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
)

// This file reproduces the console outputs of the paper's evaluation:
// Fig. 6 (state after three logins), Fig. 7 (deletion request + merge of
// the first two sequences + marker shift to block 6), and Fig. 8 (one
// cycle ahead, deletion request no longer stored).
//
// Scenario (§V): logins of ALPHA, BRAVO, CHARLIE are logged to the
// chain; a summary block is created every third block; BRAVO requests
// deletion of its entry in block 3, entry 1.

// figureScenario drives the shared §V scenario to the requested stage.
//
//	stage 1 → Fig. 6 state (blocks 0..Σ5)
//	stage 2 → Fig. 7 state (deletion in 6, merge at Σ8, marker → 6)
//	stage 3 → Fig. 8 state (one merge cycle ahead, marker → 12)
func figureScenario(stage int) (*chain.Chain, *env, error) {
	e, err := newEnv("ALPHA", "BRAVO", "CHARLIE")
	if err != nil {
		return nil, nil, err
	}
	c, err := e.paperChain()
	if err != nil {
		return nil, nil, err
	}
	logger := audit.NewLogger(c)
	login := func(user, terminal string) (*block.Entry, error) {
		return logger.EntryFor(e.keys[user], audit.LoginEvent{
			User: user, Terminal: terminal, Success: true,
		})
	}
	// One SubmitWait per scenario step: entries of a step share a block
	// (the pipeline never splits one call), and waiting between steps
	// keeps the block layout identical to the paper's figures.
	commit := func(entries ...*block.Entry) error {
		_, err := c.SubmitWait(context.Background(), entries...)
		return err
	}

	// Block 1: ALPHA; Σ2. Block 3: ALPHA+BRAVO; block 4: CHARLIE; Σ5.
	a1, err := login("ALPHA", "tty1")
	if err != nil {
		return nil, nil, err
	}
	if err := commit(a1); err != nil {
		return nil, nil, err
	}
	a2, err := login("ALPHA", "tty2")
	if err != nil {
		return nil, nil, err
	}
	b1, err := login("BRAVO", "tty1")
	if err != nil {
		return nil, nil, err
	}
	if err := commit(a2, b1); err != nil {
		return nil, nil, err
	}
	c1, err := login("CHARLIE", "tty1")
	if err != nil {
		return nil, nil, err
	}
	if err := commit(c1); err != nil {
		return nil, nil, err
	}
	if stage <= 1 {
		return c, e, nil
	}

	// Block 6: BRAVO's deletion request for 3/1. Block 7: ALPHA. Σ8
	// merges sequences 0 and 1, marker → 6.
	del := block.NewDeletion("BRAVO", block.Ref{Block: 3, Entry: 1}).Sign(e.keys["BRAVO"])
	if err := commit(del); err != nil {
		return nil, nil, err
	}
	a3, err := login("ALPHA", "tty3")
	if err != nil {
		return nil, nil, err
	}
	if err := commit(a3); err != nil {
		return nil, nil, err
	}
	if stage <= 2 {
		return c, e, nil
	}

	// One cycle ahead: blocks 9, 10+Σ11, 12, 13+Σ14 (merge, marker → 12).
	for i, pair := range [][2]string{
		{"ALPHA", "tty4"}, {"BRAVO", "tty2"}, {"CHARLIE", "tty2"}, {"ALPHA", "tty5"},
	} {
		ev, err := login(pair[0], pair[1])
		if err != nil {
			return nil, nil, fmt.Errorf("login %d: %w", i, err)
		}
		if err := commit(ev); err != nil {
			return nil, nil, err
		}
	}
	return c, e, nil
}

// renderOptions decodes audit payloads for the console dump.
func renderOptions() *chain.RenderOptions {
	return &chain.RenderOptions{
		ShowMarks: true,
		PayloadText: func(p []byte) string {
			e := &block.Entry{Kind: block.KindData, Payload: p}
			if ev, err := audit.Decode(e); err == nil {
				return ev.String()
			}
			return fmt.Sprintf("0x%x", p)
		},
	}
}

func runFig6(w io.Writer) error {
	c, _, err := figureScenario(1)
	if err != nil {
		return err
	}
	defer c.Close()
	fmt.Fprintln(w, "state after three logins (summaries S2, S5 empty; nothing deleted):")
	return c.Render(w, renderOptions())
}

func runFig7(w io.Writer) error {
	c, _, err := figureScenario(2)
	if err != nil {
		return err
	}
	defer c.Close()
	fmt.Fprintln(w, "BRAVO requested deletion of 3/1 in block 6; S8 merged sequences 0+1,")
	fmt.Fprintln(w, "entry 3/1 was not copied, marker shifted to block 6:")
	if err := c.Render(w, renderOptions()); err != nil {
		return err
	}
	s := c.Stats()
	fmt.Fprintf(w, "forgotten=%d cut_blocks=%d live=%d marker=%d\n",
		s.ForgottenEntries, s.CutBlocks, s.LiveBlocks, c.Marker())
	return nil
}

func runFig8(w io.Writer) error {
	c, _, err := figureScenario(3)
	if err != nil {
		return err
	}
	defer c.Close()
	fmt.Fprintln(w, "one cycle ahead: the deletion request (block 6) was never copied")
	fmt.Fprintln(w, "into a summary block and is gone; survivors were re-carried:")
	if err := c.Render(w, renderOptions()); err != nil {
		return err
	}
	// Assert the Fig. 8 property programmatically as well, streaming
	// every live entry (normal and carried) with its stable reference.
	for ref, e := range c.EntriesSeq() {
		if e.Kind == block.KindDeletion {
			return fmt.Errorf("deletion entry %s still live", ref)
		}
	}
	fmt.Fprintln(w, "check: no deletion entry present in any live block — OK")
	return nil
}

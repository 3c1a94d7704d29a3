package chain

import (
	"strings"
	"sync"
	"testing"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/simclock"
)

// renderString returns c's Render output as a string.
func renderString(c *Chain, opts *RenderOptions) string {
	var sb strings.Builder
	_ = c.Render(&sb, opts)
	return sb.String()
}

func TestRenderPayloadHeuristics(t *testing.T) {
	env := newEnv(t, "alpha")
	c := newChain(t, defaultConfig(env))
	mustSeal(t, c,
		env.data("alpha", "printable text"),
		block.NewData("alpha", []byte{0x00, 0x01, 0xFF}).Sign(env.keys["alpha"]),
		block.NewData("alpha", nil).Sign(env.keys["alpha"]),
	)
	out := renderString(c, nil)
	if !strings.Contains(out, "printable text") {
		t.Errorf("printable payload not shown as text:\n%s", out)
	}
	if !strings.Contains(out, "0x0001ff") {
		t.Errorf("binary payload not hex-escaped:\n%s", out)
	}
	if !strings.Contains(out, "D - K alpha") {
		t.Errorf("empty payload placeholder missing:\n%s", out)
	}
}

func TestRenderHideMarkerAndCustomPayload(t *testing.T) {
	env := newEnv(t, "alpha")
	c := newChain(t, defaultConfig(env))
	mustSeal(t, c, env.data("alpha", "x"))
	out := renderString(c, &RenderOptions{
		HideMarker:  true,
		PayloadText: func([]byte) string { return "<redacted>" },
	})
	if strings.Contains(out, "m ->") {
		t.Error("marker line shown despite HideMarker")
	}
	if !strings.Contains(out, "<redacted>") {
		t.Error("custom payload renderer not used")
	}
}

func TestRenderSequenceReference(t *testing.T) {
	env := newEnv(t, "alpha")
	cfg := defaultConfig(env)
	cfg.RedundancyReference = true
	cfg.MaxSequences = 4
	c := newChain(t, cfg)
	for i := 0; i < 8; i++ {
		mustSeal(t, c, env.data("alpha", "x"))
	}
	out := renderString(c, nil)
	if !strings.Contains(out, "ref w[") {
		t.Errorf("Fig. 9 reference line missing:\n%s", out)
	}
}

func TestConcurrentReadersDuringSeals(t *testing.T) {
	env := newEnv(t, "alpha")
	cfg := defaultConfig(env)
	cfg.MaxSequences = 1
	cfg.Shrink = ShrinkMinimal
	c := newChain(t, cfg)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = c.Len()
				_ = c.Marker()
				_ = c.Stats()
				_, _, _ = c.Lookup(block.Ref{Block: 1, Entry: 0})
				_ = c.Blocks()
				_ = renderString(c, nil)
				_ = c.VerifyIntegrity()
			}
		}()
	}
	for i := 0; i < 50; i++ {
		mustSeal(t, c, env.data("alpha", "payload"))
	}
	close(stop)
	wg.Wait()
	if err := c.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreReconstructsMarks(t *testing.T) {
	// A deletion entry still live after a restart must re-create its
	// mark, so the pending deletion executes on the restored chain too.
	env := newEnv(t, "alpha")
	cfg := Config{
		SequenceLength: 3,
		MaxSequences:   3,
		Shrink:         ShrinkMinimal,
		Registry:       env.registry,
		Clock:          simclock.NewLogical(0),
	}
	c := newChain(t, cfg)
	mustSeal(t, c, env.data("alpha", "victim"))
	target := block.Ref{Block: 1, Entry: 0}
	mustSeal(t, c, env.del("alpha", target))
	if !c.IsMarked(target) {
		t.Fatal("precondition: not marked")
	}

	cfg2 := cfg
	cfg2.Clock = simclock.NewLogical(0)
	restored, err := restoreBlocks(cfg2, c.Blocks())
	if err != nil {
		t.Fatal(err)
	}
	if !restored.IsMarked(target) {
		t.Fatal("mark lost across restore")
	}
	// The restored chain executes the deletion like the original.
	for restored.IsMarked(target) {
		if _, err := restored.AppendEmpty(); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := restored.Lookup(target); ok {
		t.Error("entry survived on restored chain")
	}
}

func TestRestorePreservesDependencyGraph(t *testing.T) {
	env := newEnv(t, "ALPHA", "BRAVO")
	cfg := defaultConfig(env)
	c := newChain(t, cfg)
	mustSeal(t, c, env.data("ALPHA", "base"))
	base := block.Ref{Block: 1, Entry: 0}
	dep := block.NewData("BRAVO", []byte("dependent")).WithDependsOn(base).Sign(env.keys["BRAVO"])
	mustSeal(t, c, dep)

	cfg2 := defaultConfig(env)
	restored, err := restoreBlocks(cfg2, c.Blocks())
	if err != nil {
		t.Fatal(err)
	}
	// Cohesion still enforced after restore: plain request rejected.
	plain := env.del("ALPHA", base)
	if err := restored.CheckDeletionRequest(plain); err == nil {
		t.Error("restored chain lost the dependency edge")
	}
}

package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update rewrites the golden files from this run instead of comparing:
// go test ./internal/experiments -update
var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

func goldenPath(id string) string { return filepath.Join("testdata", id+".golden") }

// golden runs one experiment and compares what it prints, byte for
// byte, with testdata/<id>.golden: the tables are counted, not timed,
// so any difference is a change in behaviour.
func golden(t *testing.T, id string) {
	t.Helper()
	var buf bytes.Buffer
	if err := Run(&buf, id); err != nil {
		t.Fatalf("Run(%s): %v\noutput so far:\n%s", id, err, buf.String())
	}
	if *update {
		if err := os.WriteFile(goldenPath(id), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("%s differs from %s (rerun with -update if the change is meant)\n--- got\n%s--- want\n%s",
			id, goldenPath(id), buf.Bytes(), want)
	}
}

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 12 {
		t.Fatalf("%d experiments, want 12 (E1–E12)", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := Lookup("fig7"); !ok {
		t.Error("Lookup(fig7) failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup(nope) succeeded")
	}
	if err := Run(&bytes.Buffer{}, "nope"); err == nil {
		t.Error("Run(nope) did not fail")
	}
	if len(IDs()) != 12 {
		t.Error("IDs incomplete")
	}
}

// One test per experiment, each a golden comparison of its table.

func TestFigure6Output(t *testing.T)   { golden(t, "fig6") }
func TestFigure7Output(t *testing.T)   { golden(t, "fig7") }
func TestFigure8Output(t *testing.T)   { golden(t, "fig8") }
func TestAttack51Output(t *testing.T)  { golden(t, "attack51") }
func TestSumCostOutput(t *testing.T)   { golden(t, "sumcost") }
func TestDelCostOutput(t *testing.T)   { golden(t, "delcost") }
func TestDelayOutput(t *testing.T)     { golden(t, "delay") }
func TestTTLOutput(t *testing.T)       { golden(t, "ttl") }
func TestBaselinesOutput(t *testing.T) { golden(t, "baselines") }
func TestClusterOutput(t *testing.T)   { golden(t, "cluster") }
func TestConsensusOutput(t *testing.T) { golden(t, "consensus") }

func TestGrowthShape(t *testing.T) {
	// E4's headline claim: seldel bounded, plain unbounded.
	small, err := MeasureGrowth(200)
	if err != nil {
		t.Fatal(err)
	}
	large, err := MeasureGrowth(800)
	if err != nil {
		t.Fatal(err)
	}
	// Length bound: live blocks never exceed lmax plus the in-progress
	// sequence overshoot (retention applies at summary slots).
	if large.SeldelLiveBlocks > 60+5 {
		t.Errorf("seldel live blocks %d exceed lmax+l-1", large.SeldelLiveBlocks)
	}
	// TTL workload: bytes fully bounded (the §IV-D.4 self-cleaning case).
	if large.SeldelTTLBytes > small.SeldelTTLBytes*2 {
		t.Errorf("seldel TTL bytes grew %d -> %d (not bounded)", small.SeldelTTLBytes, large.SeldelTTLBytes)
	}
	// Durable workload: data accumulates in Σ blocks (§V-B.2) but stays
	// below the plain chain (no per-block overhead for old data).
	if large.SeldelDurableByte >= large.PlainBytes {
		t.Errorf("durable seldel bytes %d not below plain %d", large.SeldelDurableByte, large.PlainBytes)
	}
	// Plain grows linearly: 4x blocks ≈ 4x bytes.
	ratio := float64(large.PlainBytes) / float64(small.PlainBytes)
	if ratio < 3 || ratio > 5 {
		t.Errorf("plain growth ratio %.2f, want ~4", ratio)
	}
	// Local pruning: local bounded, global linear.
	if large.PruneGlobalBytes <= large.PruneLocalBytes {
		t.Error("prune global not larger than local")
	}
	gRatio := float64(large.PruneGlobalBytes) / float64(small.PruneGlobalBytes)
	if gRatio < 3 {
		t.Errorf("prune global growth ratio %.2f, want ~4", gRatio)
	}
	golden(t, "growth")
}

// TestRunAll pins what `seldel-bench` prints with no flags: every
// experiment of All() in index order, each table equal to its golden —
// so an experiment added without one fails here.
func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("every experiment already ran once on its own")
	}
	var got, want bytes.Buffer
	if err := RunAll(&got); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	for _, e := range All() {
		table, err := os.ReadFile(goldenPath(e.ID))
		if err != nil {
			t.Fatal(err)
		}
		want.Write(table)
		want.WriteByte('\n')
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("RunAll is not the golden tables in index order:\n%s", got.Bytes())
	}
}

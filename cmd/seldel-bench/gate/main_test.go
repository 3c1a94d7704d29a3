package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/seldel/seldel/internal/experiments"
)

func report(submit16, cluster3 float64) *experiments.PipelineReport {
	r := &experiments.PipelineReport{}
	if submit16 > 0 {
		r.Results = append(r.Results, experiments.PipelineResult{
			API: "submit", Producers: 16, OpsPerSec: submit16,
		})
	}
	if cluster3 > 0 {
		r.ClusterResults = append(r.ClusterResults, experiments.ClusterResult{
			Nodes: 3, BlocksPerSec: cluster3,
		})
	}
	return r
}

func TestEvaluatePasses(t *testing.T) {
	base := report(10000, 50000)
	// 20% down on both metrics: inside the 30% allowance.
	if fails := evaluate(metrics, base, report(8000, 40000), 0.30); len(fails) != 0 {
		t.Fatalf("unexpected failures: %v", fails)
	}
	// Improvements obviously pass.
	if fails := evaluate(metrics, base, report(20000, 90000), 0.30); len(fails) != 0 {
		t.Fatalf("unexpected failures: %v", fails)
	}
}

func TestEvaluateFlagsRegression(t *testing.T) {
	base := report(10000, 50000)
	fails := evaluate(metrics, base, report(6000, 50000), 0.30)
	if len(fails) != 1 || !strings.Contains(fails[0], "submit@16") {
		t.Fatalf("want one submit@16 failure, got %v", fails)
	}
	fails = evaluate(metrics, base, report(10000, 30000), 0.30)
	if len(fails) != 1 || !strings.Contains(fails[0], "cluster@3") {
		t.Fatalf("want one cluster@3 failure, got %v", fails)
	}
}

func TestEvaluateMissingMetric(t *testing.T) {
	base := report(10000, 50000)
	// Candidate silently lost the cluster dimension: that is a failure.
	fails := evaluate(metrics, base, report(10000, 0), 0.30)
	if len(fails) != 1 || !strings.Contains(fails[0], "missing from candidate") {
		t.Fatalf("want missing-metric failure, got %v", fails)
	}
	// Baseline without the dimension (pre-PR-4 file): skipped, not failed.
	if fails := evaluate(metrics, report(10000, 0), report(10000, 0), 0.30); len(fails) != 0 {
		t.Fatalf("unexpected failures vs old baseline: %v", fails)
	}
}

func TestEvaluateManifestMetric(t *testing.T) {
	withProofs := func(proofs float64) *experiments.PipelineReport {
		r := report(10000, 50000)
		if proofs > 0 {
			r.ManifestResults = append(r.ManifestResults, experiments.ManifestResult{
				Op: "proofs", Manifest: true, RatePerSec: proofs,
			})
		}
		return r
	}
	base := withProofs(100000)
	if fails := evaluate(metrics, base, withProofs(80000), 0.30); len(fails) != 0 {
		t.Fatalf("unexpected failures: %v", fails)
	}
	fails := evaluate(metrics, base, withProofs(10000), 0.30)
	if len(fails) != 1 || !strings.Contains(fails[0], "tombstone proofs") {
		t.Fatalf("want one tombstone-proofs failure, got %v", fails)
	}
	// Candidate silently lost the manifest dimension: that is a failure.
	fails = evaluate(metrics, base, withProofs(0), 0.30)
	if len(fails) != 1 || !strings.Contains(fails[0], "missing from candidate") {
		t.Fatalf("want missing-metric failure, got %v", fails)
	}
	// Baseline without the dimension (pre-PR-6 file): skipped, not failed.
	if fails := evaluate(metrics, withProofs(0), withProofs(100000), 0.30); len(fails) != 0 {
		t.Fatalf("unexpected failures vs old baseline: %v", fails)
	}
}

// TestEvaluateCostMetrics covers the lower-is-better guards: append
// allocs/entry and group-commit fsyncs/block regress UPWARD, so the
// gate must fail on increases and pass on decreases — the mirror image
// of the rate metrics.
func TestEvaluateCostMetrics(t *testing.T) {
	withCosts := func(allocs, groupFsyncs float64) *experiments.PipelineReport {
		r := report(10000, 50000)
		if allocs > 0 {
			r.HotPathResults = append(r.HotPathResults, experiments.HotPathResult{
				Op: "append-allocs", Mode: "pipelined", AllocsPerEntry: allocs,
			})
		}
		if groupFsyncs > 0 {
			r.HotPathResults = append(r.HotPathResults, experiments.HotPathResult{
				Op: "durability", Mode: "group", Producers: 16, FsyncsPerBlock: groupFsyncs,
			})
		}
		return r
	}
	base := withCosts(10, 0.2)
	// Costs dropping (improvement) and small increases inside the
	// allowance both pass.
	if fails := evaluate(metrics, base, withCosts(5, 0.1), 0.30); len(fails) != 0 {
		t.Fatalf("unexpected failures on improvement: %v", fails)
	}
	if fails := evaluate(metrics, base, withCosts(12, 0.25), 0.30); len(fails) != 0 {
		t.Fatalf("unexpected failures inside allowance: %v", fails)
	}
	// Allocations blowing past the ceiling is a regression.
	fails := evaluate(metrics, base, withCosts(20, 0.2), 0.30)
	if len(fails) != 1 || !strings.Contains(fails[0], "allocs/entry") {
		t.Fatalf("want one allocs/entry failure, got %v", fails)
	}
	// So is the group committer degenerating toward fsync-per-block.
	fails = evaluate(metrics, base, withCosts(10, 0.9), 0.30)
	if len(fails) != 1 || !strings.Contains(fails[0], "fsyncs/block") {
		t.Fatalf("want one fsyncs/block failure, got %v", fails)
	}
	// Candidate silently lost the hot-path dimension: both guards fire.
	fails = evaluate(metrics, base, withCosts(0, 0), 0.30)
	if len(fails) != 2 || !strings.Contains(fails[0], "missing from candidate") {
		t.Fatalf("want two missing-metric failures, got %v", fails)
	}
	// Baseline without the dimension (pre-PR-7 file): skipped.
	if fails := evaluate(metrics, withCosts(0, 0), withCosts(10, 0.2), 0.30); len(fails) != 0 {
		t.Fatalf("unexpected failures vs old baseline: %v", fails)
	}
}

// TestEvaluatePartitionMetric covers the PR 8 rate guard: submission
// throughput at 4 partitions is baseline-relative like every other
// rate, with the same skip-vs-fail asymmetry on missing dimensions.
func TestEvaluatePartitionMetric(t *testing.T) {
	withParts := func(ops4 float64) *experiments.PipelineReport {
		r := report(10000, 50000)
		if ops4 > 0 {
			r.PartitionResults = append(r.PartitionResults, experiments.PartitionResult{
				Partitions: 4, Producers: 16, OpsPerSec: ops4,
			})
		}
		return r
	}
	base := withParts(40000)
	if fails := evaluate(metrics, base, withParts(35000), 0.30); len(fails) != 0 {
		t.Fatalf("unexpected failures: %v", fails)
	}
	fails := evaluate(metrics, base, withParts(10000), 0.30)
	if len(fails) != 1 || !strings.Contains(fails[0], "partitions submit@16") {
		t.Fatalf("want one partition-rate failure, got %v", fails)
	}
	// Candidate silently lost the partition dimension: failure.
	fails = evaluate(metrics, base, withParts(0), 0.30)
	if len(fails) != 1 || !strings.Contains(fails[0], "missing from candidate") {
		t.Fatalf("want missing-metric failure, got %v", fails)
	}
	// Baseline without the dimension (pre-PR-8 file): skipped, not failed.
	if fails := evaluate(metrics, withParts(0), withParts(40000), 0.30); len(fails) != 0 {
		t.Fatalf("unexpected failures vs old baseline: %v", fails)
	}
}

// TestCheckPartitionScaling pins the candidate-only sharding floor:
// enforced on >= 4-CPU candidates, skipped (loudly, never failed) on
// narrow boxes or reports without the dimension.
func TestCheckPartitionScaling(t *testing.T) {
	cand := func(cpus int, scaling float64) *experiments.PipelineReport {
		return &experiments.PipelineReport{NumCPU: cpus, PartitionScaling4x: scaling}
	}
	if v := checkPartitionScaling(cand(8, 2.5), 2.0); len(v) != 0 {
		t.Errorf("scaling above floor flagged: %v", v)
	}
	v := checkPartitionScaling(cand(8, 1.2), 2.0)
	if len(v) != 1 || !strings.Contains(v[0], "partition scaling") {
		t.Errorf("want one scaling violation, got %v", v)
	}
	// Single-core candidate: 4-way sharding cannot help; skip, not fail.
	if v := checkPartitionScaling(cand(1, 0.9), 2.0); len(v) != 0 {
		t.Errorf("narrow-box candidate flagged: %v", v)
	}
	// No partition dimension at all: skip, not fail.
	if v := checkPartitionScaling(cand(8, 0), 2.0); len(v) != 0 {
		t.Errorf("dimensionless candidate flagged: %v", v)
	}
	// Floor disabled explicitly.
	if v := checkPartitionScaling(cand(8, 0.5), 0); len(v) != 0 {
		t.Errorf("disabled floor flagged: %v", v)
	}
}

func TestHardwareComparable(t *testing.T) {
	same := func() *experiments.PipelineReport {
		return &experiments.PipelineReport{GOOS: "linux", GOARCH: "amd64", NumCPU: 4}
	}
	if ok, _ := hardwareComparable(same(), same()); !ok {
		t.Error("identical hardware reported as incomparable")
	}
	other := same()
	other.NumCPU = 1
	if ok, why := hardwareComparable(same(), other); ok || why == "" {
		t.Errorf("num_cpu mismatch not flagged: ok=%v why=%q", ok, why)
	}
	osDiff := same()
	osDiff.GOOS = "darwin"
	if ok, _ := hardwareComparable(same(), osDiff); ok {
		t.Error("goos mismatch not flagged")
	}
}

// TestRunAdvisoryOnHardwareMismatch pins the end-to-end gating policy:
// a regression vs a different-hardware baseline warns but exits clean,
// while the same regression on matching hardware (or with -enforce)
// fails.
func TestRunAdvisoryOnHardwareMismatch(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r *experiments.PipelineReport) string {
		path := filepath.Join(dir, name)
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := report(10000, 50000)
	base.GOOS, base.GOARCH, base.NumCPU = "linux", "amd64", 1
	slow := report(3000, 50000)
	slow.GOOS, slow.GOARCH, slow.NumCPU = "linux", "amd64", 4
	basePath := write("base.json", base)
	slowPath := write("slow.json", slow)
	if err := run([]string{"-baseline", basePath, "-candidate", slowPath}); err != nil {
		t.Errorf("hardware-mismatched regression should be advisory, got %v", err)
	}
	if err := run([]string{"-baseline", basePath, "-candidate", slowPath, "-enforce"}); err == nil {
		t.Error("-enforce should fail the mismatched regression")
	}
	sameHW := report(3000, 50000)
	sameHW.GOOS, sameHW.GOARCH, sameHW.NumCPU = "linux", "amd64", 1
	samePath := write("same.json", sameHW)
	if err := run([]string{"-baseline", basePath, "-candidate", samePath}); err == nil {
		t.Error("matching-hardware regression should fail")
	}
}

// TestEvaluateLoadMetric covers the PR 9 serving guard: p99 append
// latency through the HTTP front-end is a lower-is-better cost, and
// -dimension load evaluates it alone so a seldel-load report is not
// penalized for lacking every other dimension.
func TestEvaluateLoadMetric(t *testing.T) {
	withP99 := func(p99 float64) *experiments.PipelineReport {
		r := &experiments.PipelineReport{}
		if p99 > 0 {
			r.SetLoadResults([]experiments.LoadResult{{Workload: "append", P99Micros: int64(p99)}})
		}
		return r
	}
	base := withP99(2000)
	if fails := evaluate(loadMetrics, base, withP99(2400), 0.30); len(fails) != 0 {
		t.Fatalf("p99 inside allowance flagged: %v", fails)
	}
	fails := evaluate(loadMetrics, base, withP99(5000), 0.30)
	if len(fails) != 1 || !strings.Contains(fails[0], "serve append p99") {
		t.Fatalf("want one p99 failure, got %v", fails)
	}
	// -dimension load must not demand the other dimensions.
	if fails := evaluate(metricSets["load"], report(10000, 50000), withP99(2000), 0.30); len(fails) != 0 {
		t.Fatalf("load dimension demanded non-load metrics: %v", fails)
	}
	// Baseline without the dimension: skipped, not failed.
	if fails := evaluate(loadMetrics, withP99(0), withP99(2000), 0.30); len(fails) != 0 {
		t.Fatalf("unexpected failures vs old baseline: %v", fails)
	}
}

// TestCheckShedFraction pins the candidate-only shed ceiling.
func TestCheckShedFraction(t *testing.T) {
	cand := func(frac float64) *experiments.PipelineReport {
		return &experiments.PipelineReport{LoadResults: []experiments.LoadResult{
			{Workload: "append", ShedFraction: frac, Scheduled: 1000, Sheds: int64(frac * 1000)},
		}}
	}
	if v := checkShedFraction(cand(0.01), 0.05); len(v) != 0 {
		t.Errorf("sheds under ceiling flagged: %v", v)
	}
	v := checkShedFraction(cand(0.2), 0.05)
	if len(v) != 1 || !strings.Contains(v[0], "shed fraction") {
		t.Errorf("want one shed violation, got %v", v)
	}
	// No load dimension: skip, not fail.
	if v := checkShedFraction(&experiments.PipelineReport{}, 0.05); len(v) != 0 {
		t.Errorf("dimensionless candidate flagged: %v", v)
	}
	// Disabled.
	if v := checkShedFraction(cand(0.9), -1); len(v) != 0 {
		t.Errorf("disabled ceiling flagged: %v", v)
	}
}

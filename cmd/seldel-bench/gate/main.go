// Command gate is the CI bench-smoke regression gate: it compares a
// freshly measured `seldel-bench -json` report against the committed
// baseline and fails (exit 1) when a guarded throughput metric
// regressed by more than the allowed fraction.
//
// Guarded metrics are either rates (ops/sec, blocks/sec — lower is a
// regression) or costs (allocs per appended entry, fsyncs per block —
// HIGHER is a regression); both are stable under a smaller
// -json-entries than the baseline. Rate guards: submission throughput
// at 16 producers, cluster-replicated block throughput at 3 nodes,
// tombstone-proof build+verify throughput, and partitioned submission
// throughput at 4 partitions. Cost guards: pipelined append
// allocs/entry, group-commit fsyncs/block at 16 producers, and open-loop
// p99 append latency through the HTTP front-end (the serving dimension;
// -dimension load evaluates it alone, for seldel-load -json reports that
// carry nothing else). Candidate-only checks: the 4-partition scaling floor
// (-min-partition-scaling, >= 4-CPU hardware) and the open-loop shed
// ceiling (-max-shed-frac). Dimensions absent from the baseline are
// skipped with a printed "skip:" line — never silently (see README.md
// here for the history).
//
// Usage:
//
//	gate -baseline BENCH_PR9.json -candidate bench-smoke.json -max-regress 0.30
//	gate -baseline load-base.json -candidate load.json -dimension load -max-shed-frac 0.05
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"github.com/seldel/seldel/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gate:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gate", flag.ContinueOnError)
	basePath := fs.String("baseline", "", "committed baseline report (e.g. BENCH_PR4.json)")
	candPath := fs.String("candidate", "", "freshly measured report (e.g. bench-smoke.json)")
	maxRegress := fs.Float64("max-regress", 0.30, "maximum allowed fractional regression per metric")
	minScaling := fs.Float64("min-partition-scaling", 2.0, "minimum 4-partition over 1-partition submit throughput (enforced only when the candidate ran on >= 4 CPUs)")
	maxShed := fs.Float64("max-shed-frac", -1, "maximum shed fraction on the candidate's open-loop append run (candidate-only check; negative disables)")
	dimension := fs.String("dimension", "all", `metric subset to evaluate: "all", or "load" for reports holding only the serving dimension (seldel-load -json)`)
	enforce := fs.Bool("enforce", false, "fail on regression even when the baseline was measured on different hardware")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *basePath == "" || *candPath == "" {
		return fmt.Errorf("both -baseline and -candidate are required")
	}
	guarded, ok := metricSets[*dimension]
	if !ok {
		return fmt.Errorf("unknown -dimension %q (want all or load)", *dimension)
	}
	base, err := readReport(*basePath)
	if err != nil {
		return err
	}
	cand, err := readReport(*candPath)
	if err != nil {
		return err
	}
	failures := evaluate(guarded, base, cand, *maxRegress)
	// The partition scaling floor and the shed ceiling are candidate-only
	// (ratios within one report), so baseline hardware mismatch never
	// downgrades them.
	var scaling []string
	if *dimension == "all" {
		scaling = checkPartitionScaling(cand, *minScaling)
	}
	scaling = append(scaling, checkShedFraction(cand, *maxShed)...)
	if len(failures) == 0 && len(scaling) == 0 {
		fmt.Println("bench gate passed")
		return nil
	}
	for _, f := range append(append([]string{}, failures...), scaling...) {
		fmt.Fprintln(os.Stderr, "REGRESSION:", f)
	}
	// Absolute rates only transfer between comparable machines. When
	// the baseline was recorded on a different hardware class, a hard
	// failure would be noise (and a pass would prove nothing), so the
	// gate reports the regressions as advisory and asks the operator to
	// recalibrate; -enforce overrides.
	if match, why := hardwareComparable(base, cand); !match && !*enforce {
		fmt.Fprintf(os.Stderr, "WARNING: baseline hardware differs from candidate (%s); "+
			"baseline-relative regressions above are ADVISORY — regenerate the baseline from this "+
			"environment's bench output (e.g. the CI bench-smoke artifact) to arm the gate, or pass -enforce\n", why)
		if len(scaling) > 0 {
			return fmt.Errorf("candidate-only check violated (hardware mismatch does not excuse it)")
		}
		return nil
	}
	return fmt.Errorf("%d metric(s) regressed beyond allowed bounds", len(failures)+len(scaling))
}

// checkPartitionScaling enforces the sharding floor: the 4-partition
// submission row must beat the single-partition row by at least min on
// hardware that can actually run four sub-chains in parallel. On
// narrower boxes (or candidates without the dimension) the check skips
// loudly instead of passing silently.
func checkPartitionScaling(cand *experiments.PipelineReport, min float64) []string {
	if min <= 0 {
		return nil
	}
	if cand.PartitionScaling4x <= 0 {
		fmt.Println("skip: partition scaling floor — candidate has no partition dimension; floor UNENFORCED this run")
		return nil
	}
	if cand.NumCPU < 4 {
		fmt.Printf("skip: partition scaling floor — candidate num_cpu=%d < 4; 4-way sharding cannot scale here, floor UNENFORCED this run\n", cand.NumCPU)
		return nil
	}
	if cand.PartitionScaling4x < min {
		return []string{fmt.Sprintf("partition scaling: 4p/1p %.2fx < floor %.2fx (num_cpu=%d)",
			cand.PartitionScaling4x, min, cand.NumCPU)}
	}
	fmt.Printf("ok: %-45s %9.2fx (floor %.2fx)\n", "partition scaling 4p/1p", cand.PartitionScaling4x, min)
	return nil
}

// checkShedFraction enforces the load ceiling: at the fixed open-loop
// rate the server must answer, not shed — a rising shed fraction at an
// unchanged offered rate means admission control is carrying load the
// pipeline used to absorb. Candidate-only, like the scaling floor.
func checkShedFraction(cand *experiments.PipelineReport, max float64) []string {
	if max < 0 {
		return nil
	}
	for _, r := range cand.LoadResults {
		if r.Workload != "append" {
			continue
		}
		if r.ShedFraction > max {
			return []string{fmt.Sprintf("load shed fraction: %.3f > ceiling %.3f (offered %.0f/s, %d sheds of %d)",
				r.ShedFraction, max, r.OfferedPerSec, r.Sheds, r.Scheduled)}
		}
		fmt.Printf("ok: %-45s %10.3f (ceiling %.3f)\n", "load shed fraction (append)", r.ShedFraction, max)
		return nil
	}
	fmt.Println("skip: load shed ceiling — candidate has no open-loop append run; ceiling UNENFORCED this run")
	return nil
}

// hardwareComparable reports whether two reports came from the same
// hardware class — the precondition for comparing absolute rates.
func hardwareComparable(base, cand *experiments.PipelineReport) (bool, string) {
	if base.GOOS != cand.GOOS || base.GOARCH != cand.GOARCH {
		return false, fmt.Sprintf("baseline %s/%s vs candidate %s/%s", base.GOOS, base.GOARCH, cand.GOOS, cand.GOARCH)
	}
	if base.NumCPU != cand.NumCPU {
		return false, fmt.Sprintf("baseline num_cpu=%d vs candidate num_cpu=%d", base.NumCPU, cand.NumCPU)
	}
	return true, ""
}

func readReport(path string) (*experiments.PipelineReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r experiments.PipelineReport
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// metric extracts one guarded number from a report; ok is false when
// the report does not contain it (old baselines, partial runs). By
// default the number is a rate (lower candidate = regression); cost
// metrics set lowerIsBetter and regress in the other direction.
type metric struct {
	name          string
	lowerIsBetter bool
	extract       func(*experiments.PipelineReport) (float64, bool)
}

// loadMetrics guard the serving dimension alone; the load-smoke job
// evaluates just these (-dimension load) because seldel-load -json
// reports carry no other dimension and a full-report baseline would
// otherwise read every absent dimension as "silently stopped running".
var loadMetrics = []metric{
	{
		name:          "serve append p99 µs @fixed-rate",
		lowerIsBetter: true,
		extract: func(r *experiments.PipelineReport) (float64, bool) {
			if r.ServeAppendP99Micros <= 0 {
				return 0, false
			}
			return r.ServeAppendP99Micros, true
		},
	},
}

// metricSets maps -dimension to the metric subset it evaluates.
var metricSets = map[string][]metric{
	"all":  append(append([]metric{}, metrics...), loadMetrics...),
	"load": loadMetrics,
}

var metrics = []metric{
	{
		name: "submit@16 ops/sec",
		extract: func(r *experiments.PipelineReport) (float64, bool) {
			for _, res := range r.Results {
				if res.API == "submit" && res.Producers == 16 {
					return res.OpsPerSec, true
				}
			}
			return 0, false
		},
	},
	{
		name: "cluster@3 replicated blocks/sec",
		extract: func(r *experiments.PipelineReport) (float64, bool) {
			for _, res := range r.ClusterResults {
				if res.Nodes == 3 {
					return res.BlocksPerSec, true
				}
			}
			return 0, false
		},
	},
	{
		// The WAN convergence row: proposal rounds a deletion needs to
		// become unresolvable on all 50 geo-distributed nodes. A round
		// count, not a rate — hardware-independent and exactly what the
		// WAN scenario suite pins — so creeping protocol regressions
		// (extra sync round trips, slower vote convergence) surface here
		// even between hardware classes.
		name:          "cluster@50 WAN deletion convergence rounds",
		lowerIsBetter: true,
		extract: func(r *experiments.PipelineReport) (float64, bool) {
			for _, res := range r.ClusterResults {
				if res.Nodes == 50 && res.DeletionRounds > 0 {
					return float64(res.DeletionRounds), true
				}
			}
			return 0, false
		},
	},
	{
		name: "tombstone proofs/sec",
		extract: func(r *experiments.PipelineReport) (float64, bool) {
			for _, res := range r.ManifestResults {
				if res.Op == "proofs" {
					return res.RatePerSec, true
				}
			}
			return 0, false
		},
	},
	{
		name: "partitions submit@16 @4p ops/sec",
		extract: func(r *experiments.PipelineReport) (float64, bool) {
			for _, res := range r.PartitionResults {
				if res.Partitions == 4 && res.Producers == 16 {
					return res.OpsPerSec, true
				}
			}
			return 0, false
		},
	},
	{
		name:          "append allocs/entry",
		lowerIsBetter: true,
		extract: func(r *experiments.PipelineReport) (float64, bool) {
			for _, res := range r.HotPathResults {
				if res.Op == "append-allocs" {
					return res.AllocsPerEntry, true
				}
			}
			return 0, false
		},
	},
	{
		name:          "group-commit fsyncs/block@16",
		lowerIsBetter: true,
		extract: func(r *experiments.PipelineReport) (float64, bool) {
			for _, res := range r.HotPathResults {
				if res.Op == "durability" && res.Mode == "group" {
					return res.FsyncsPerBlock, true
				}
			}
			return 0, false
		},
	},
}

// evaluate returns one failure line per guarded metric whose candidate
// moved more than maxRegress in the bad direction: below the baseline
// for rates, above it for lower-is-better costs. A metric missing from
// the candidate while present in the baseline is a failure too (the
// dimension silently stopped running); one missing from the baseline is
// skipped — loudly, so a gate run that guarded fewer dimensions than
// the reader assumed is visible in the log instead of reading as full
// coverage (that silence is how the PR 6 manifest dimension shipped
// ungated; see README.md in this directory).
func evaluate(guarded []metric, base, cand *experiments.PipelineReport, maxRegress float64) []string {
	var failures []string
	for _, m := range guarded {
		b, ok := m.extract(base)
		if !ok || b <= 0 {
			fmt.Printf("skip: %-43s not in baseline — dimension UNGUARDED this run; regenerate the baseline to arm it\n", m.name)
			continue
		}
		c, ok := m.extract(cand)
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from candidate (baseline %.3g)", m.name, b))
			continue
		}
		if m.lowerIsBetter {
			ceiling := b * (1 + maxRegress)
			if c > ceiling {
				failures = append(failures, fmt.Sprintf("%s: %.3g > ceiling %.3g (baseline %.3g, allowed +%.0f%%)",
					m.name, c, ceiling, b, maxRegress*100))
			} else {
				fmt.Printf("ok: %-45s %10.3g (baseline %.3g, ceiling %.3g)\n", m.name, c, b, ceiling)
			}
			continue
		}
		floor := b * (1 - maxRegress)
		if c < floor {
			failures = append(failures, fmt.Sprintf("%s: %.0f < floor %.0f (baseline %.0f, allowed -%.0f%%)",
				m.name, c, floor, b, maxRegress*100))
		} else {
			fmt.Printf("ok: %-45s %10.0f (baseline %.0f, floor %.0f)\n", m.name, c, b, floor)
		}
	}
	return failures
}

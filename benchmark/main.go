// Command benchmark is the repository's benchmark: three workloads run
// to steady state against the public façade github.com/seldel/seldel,
// measured end to end and, with --trace 1, layer by layer from outside.
// See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output, exactly these keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// raw, verifyNs and stealFrac go to the result file only: the
	// end-to-end metrics as the clock read them, the meter's reading over
	// the window, and the share of the window's processor time that the
	// hypervisor gave away.
	raw       map[string]metric
	verifyNs  float64
	stealFrac float64
}

// environment is recorded in every result file.
type environment struct {
	Commit         string            `json:"commit"`
	NumCPU         int               `json:"nproc"`
	GOMAXPROCS     int               `json:"gomaxprocs"`
	GoVersion      string            `json:"go_version"`
	StoreFS        string            `json:"store_filesystem"`
	Workload       string            `json:"workload"`
	Seed           uint64            `json:"seed"`
	Seconds        int               `json:"seconds"`
	Trace          bool              `json:"trace"`
	ClusterLatency map[string]string `json:"cluster_virtual_latency"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	start := time.Now()
	var opt options
	var trace int
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	fs.StringVar(&opt.workload, "workload", "", "erasure, read or cluster")
	seed := fs.String("seed", "1", "input seed, any integer")
	fs.IntVar(&opt.seconds, "seconds", 10, "length of the timed window")
	fs.IntVar(&trace, "trace", 0, "1: per-layer metrics and a trace file instead of end-to-end metrics")
	fs.StringVar(&opt.dir, "dir", "benchmark", "the benchmark's own directory (scratch and output go below it)")
	out := fs.String("out", "", "also write the result, with its environment block, to this file")
	fs.Parse(os.Args[1:])
	opt.trace = trace != 0
	if n, err := strconv.ParseInt(*seed, 10, 64); err == nil {
		opt.seed = uint64(n) // a negative seed is a seed too
	} else if opt.seed, err = strconv.ParseUint(*seed, 10, 64); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: --seed:", err)
		os.Exit(2)
	}

	res, err := execute(opt, start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	printTable(os.Stdout, res)
	if *out != "" {
		if err := writeResultFile(*out, opt, res); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

// execute runs one workload and returns its metrics, or an error when
// set-up, the load or any correctness check failed.
func execute(opt options, start time.Time) (*result, error) {
	set, ok := workloads[opt.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	if opt.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	r := &run{opt: opt, set: set, start: start, ctx: context.Background(), meter: startMeter(start)}
	defer r.meter.stop()
	r.winStart = start.Add(1000 * time.Hour) // nothing counts before the window opens
	r.winEnd = r.winStart
	defer r.cleanup()
	if err := r.prepare(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if err := set.drive(r); err != nil {
		return nil, err
	}
	if r.nextK.Load() > int64(r.pool.n) {
		// Some second of the run then had nothing left to offer.
		return nil, fmt.Errorf("the pre-signed entry pool (%d entries) ran out: the system outpaced poolRate, raise it", r.pool.n)
	}
	if r.tr != nil {
		r.tr.on.Store(true) // the closing probe is traced whole
	}
	es, err := r.finish()
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Attempted: r.attempted.Load(), Failed: r.failed.Load()}
	if opt.trace {
		res.Metrics = r.layerMetrics(es)
		path := filepath.Join(opt.dir, "out", "trace-"+opt.workload+".json")
		if err := r.tr.writeSpans(path); err != nil {
			return nil, err
		}
	} else {
		res.Metrics = r.endToEnd(es, r.meter)
		res.raw, res.verifyNs = r.endToEnd(es, nil), r.meter.verifyNs(r.winStart, r.winEnd)
		res.stealFrac = r.stealFrac()
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is not a number", name)
		}
	}
	return res, nil
}

// endToEnd computes the end-to-end metrics; every workload reports all
// of them (see README.md for what each means on each workload). m scales
// every timing to the machine's nominal speed (see calib.go); nil gives
// them as the clock read them.
func (r *run) endToEnd(es *endState, m *meter) map[string]metric {
	return map[string]metric{
		"setup_s":            {r.setupDone.Sub(r.inputsReady).Seconds() / m.slowness(r.inputsReady, r.setupDone), "s"},
		"rss_mb":             {r.meter.rssMB(r.winStart, r.winEnd), "MB"},
		"write_entries_s":    {r.entriesPerSecond(m), "entries/s"},
		"write_within_limit": {within(r.writes.scaled(m), r.set.limit, r.writeFailures.Load()), "ratio"},
		"erase_p50_ms":       {median(r.erases.scaled(m)) / 1e6, "ms"},
		"page_us":            {median(r.walks.scaled(m)) / 1e3, "us"},
		"reopen_ms":          {median(es.reopen.scaled(m)) / 1e6, "ms"},
		"disk_per_live_byte": {ratio(float64(es.dirBytes), float64(es.stats.LiveBytes)), "ratio"},
	}
}

func (r *run) cleanup() {
	r.stopServer()
	if r.root != "" {
		os.RemoveAll(r.root)
	}
}

func printTable(w *os.File, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-36s %16.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%-36s %16d\n%-36s %16d\n", "attempted", res.Attempted, "failed", res.Failed)
}

func writeResultFile(path string, opt options, res *result) error {
	env := environment{
		Commit: gitCommit(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), StoreFS: fsType(opt.dir),
		Workload: opt.workload, Seed: opt.seed, Seconds: opt.seconds, Trace: opt.trace,
		ClusterLatency: map[string]string{},
	}
	for i, d := range clusterLatency {
		env.ClusterLatency[fmt.Sprintf("anchor-%d", i)] = d.String()
	}
	data, err := json.MarshalIndent(map[string]any{
		"environment": env, "result": res,
		"raw_end_to_end": res.raw, "verify_ns": res.verifyNs, "steal_frac": res.stealFrac,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// gitCommit names the commit under test; "unknown" outside a git
// checkout (the driver's checkout is not one).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fsType names the filesystem below dir by its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x794C7630:
		return "overlayfs"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

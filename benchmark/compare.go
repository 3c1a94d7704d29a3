package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// spec mirrors the parts of BENCHMARK.json the comparison needs.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns what Python's statistics.quantiles(v, n=4) returns
// (the exclusive method), which is how the driver measures spread.
func quartiles(v []float64) (q1, q2, q3 float64) {
	v = append([]float64(nil), v...)
	sort.Float64s(v)
	m := len(v)
	if m < 2 {
		return v[0], v[0], v[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// loadResults reads every result file of dir into metric → workload → values.
func loadResults(dir string) (map[string]map[string][]float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[string][]float64)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var file struct {
			Environment environment `json:"environment"`
			Result      result      `json:"result"`
		}
		if err := json.Unmarshal(data, &file); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for name, m := range file.Result.Metrics {
			if out[name] == nil {
				out[name] = make(map[string][]float64)
			}
			w := file.Environment.Workload
			out[name][w] = append(out[name][w], m.Value)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	return out, nil
}

// compareMain prints one row per (metric, workload) of two result
// sets, A the parent and B the change, and returns 1 when any
// end-to-end metric regressed.
//
//	improved / regressed: B's median is better / worse than A's by more
//	    than the metric's bound;
//	unresolved: either side's quartile spread is wider than the bound,
//	    so a difference of that size could not be seen;
//	unchanged: otherwise.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "path of BENCHMARK.json")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [--spec BENCHMARK.json] <dir A> <dir B>")
		return 2
	}
	var sp spec
	data, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(data, &sp)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	a, err := loadResults(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	b, err := loadResults(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	regressed := false
	fmt.Printf("%-20s %-8s %3s %14s %14s %14s   %3s %14s %14s %14s   %8s  %s\n",
		"metric", "workload", "nA", "A q1", "A median", "A q3", "nB", "B q1", "B median", "B q3", "B/A", "verdict")
	for _, m := range sp.EndToEnd {
		ws := make([]string, 0, len(a[m.Name]))
		for w := range a[m.Name] {
			ws = append(ws, w)
		}
		sort.Strings(ws)
		for _, w := range ws {
			va, vb := a[m.Name][w], b[m.Name][w]
			if len(vb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			verdict := "unchanged"
			worse := ratio(b2-a2, a2) // relative change, positive = larger
			if m.Better == "higher" {
				worse = -worse
			}
			switch {
			case ratio(a3-a1, a2) > m.Bound || ratio(b3-b1, b2) > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict, regressed = "regressed", true
			case worse < -m.Bound:
				verdict = "improved"
			}
			fmt.Printf("%-20s %-8s %3d %14.4f %14.4f %14.4f   %3d %14.4f %14.4f %14.4f   %8.4f  %s\n",
				m.Name, w, len(va), a1, a2, a3, len(vb), b1, b2, b3, ratio(b2, a2), verdict)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

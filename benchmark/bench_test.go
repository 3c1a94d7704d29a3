package main

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is BENCHMARK.json as the driver reads it.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sp benchmarkSpec
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	return sp
}

func units(list []struct{ Name, Unit string }) map[string]string {
	m := make(map[string]string, len(list))
	for _, e := range list {
		m[e.Name] = e.Unit
	}
	return m
}

// TestSmoke runs every workload for one second, timed and traced, with
// every correctness check on, and fails if the workload or metric names
// (or units) printed differ from BENCHMARK.json.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("six one-second benchmark runs")
	}
	sp := readSpec(t)
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for w := range workloads {
		have = append(have, w)
	}
	sort.Strings(names)
	sort.Strings(have)
	if fmt.Sprint(names) != fmt.Sprint(have) {
		t.Fatalf("workloads %v, BENCHMARK.json lists %v", have, names)
	}
	for _, w := range names {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, trace), func(t *testing.T) {
				dir := t.TempDir()
				res, err := execute(options{workload: w, seed: 1, seconds: 1, trace: trace, dir: dir}, time.Now())
				if err != nil {
					t.Fatal(err)
				}
				want := units(sp.EndToEnd)
				if trace {
					want = units(sp.PerLayer)
					if _, err := os.Stat(filepath.Join(dir, "out", "trace-"+w+".json")); err != nil {
						t.Errorf("trace file: %v", err)
					}
				}
				for name, m := range res.Metrics {
					if want[name] != m.Unit {
						t.Errorf("metric %s printed with unit %q, BENCHMARK.json says %q", name, m.Unit, want[name])
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
					}
				}
				for name := range want {
					if _, ok := res.Metrics[name]; !ok {
						t.Errorf("metric %s of BENCHMARK.json was not printed", name)
					}
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
			})
		}
	}
}

// TestPlantedVictimFails breaks one check on purpose: an erased
// victim's payload written into the store directory must fail the run.
func TestPlantedVictimFails(t *testing.T) {
	if testing.Short() {
		t.Skip("a one-second benchmark run")
	}
	_, err := execute(options{workload: "erasure", seed: 1, seconds: 1, dir: t.TempDir(), plant: true}, time.Now())
	if err == nil || !strings.Contains(err.Error(), "still on disk") {
		t.Fatalf("planted victim payload: got %v, want an erased-payload failure", err)
	}
}

// TestGenerator pins the inputs: the same seed gives byte-identical
// signed entries, another seed gives others, and neither the seed nor
// a workload name is readable in what the system under test receives.
func TestGenerator(t *testing.T) {
	const n = 64
	const pinned = "309daa701f732dcc6b3cd283be5e0b738263b2edc4137eb67faf7de80aab176c"
	a := newGenerator(1, 1000).inputHash(n)
	if b := newGenerator(1, 1000).inputHash(n); a != b {
		t.Fatal("same seed, different inputs")
	}
	if got := hex.EncodeToString(a[:]); got != pinned {
		t.Errorf("seed 1 input hash %s, pinned %s", got, pinned)
	}
	if b := newGenerator(2, 1000).inputHash(n); a == b {
		t.Fatal("different seed, same inputs")
	}
	const seed = 0xDEADBEEFCAFEF00D
	var le, be [8]byte
	binary.LittleEndian.PutUint64(le[:], seed)
	binary.BigEndian.PutUint64(be[:], seed)
	for _, e := range newGenerator(seed, 1000).sign(n).entries(0, n) {
		seen := append(append([]byte(e.Owner), e.Payload...), e.SigningBytes()...)
		for w := range workloads {
			if bytes.Contains(seen, []byte(w)) {
				t.Fatalf("workload name %q reaches the system under test", w)
			}
		}
		if bytes.Contains(seen, le[:]) || bytes.Contains(seen, be[:]) || bytes.Contains(seen, []byte(fmt.Sprint(uint64(seed)))) {
			t.Fatal("the seed reaches the system under test")
		}
	}
}

// TestQuartiles checks the spread arithmetic against Python's
// statistics.quantiles(v, n=4), which is what the driver uses.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2, 10, 4})
	if q1 != 1.5 || q2 != 3 || q3 != 7 {
		t.Errorf("quartiles(1,2,3,4,10) = %v %v %v, want 1.5 3 7", q1, q2, q3)
	}
}

// TestCompare checks the four verdicts and the exit code.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(spec, []byte(`{"end_to_end":[
		{"name":"lat_ms","unit":"ms","better":"lower","bound":0.1},
		{"name":"rate","unit":"1/s","better":"higher","bound":0.1}]}`), 0o644)
	write := func(side string, lat, rate []float64) string {
		d := filepath.Join(dir, side)
		os.MkdirAll(d, 0o755)
		for i := range lat {
			res := result{Correct: true, Attempted: 1, Metrics: map[string]metric{
				"lat_ms": {lat[i], "ms"}, "rate": {rate[i], "1/s"}}}
			data, _ := json.Marshal(map[string]any{"environment": environment{Workload: "w"}, "result": res})
			os.WriteFile(filepath.Join(d, fmt.Sprintf("w-%d.json", i)), data, 0o644)
		}
		return d
	}
	steady := []float64{100, 101, 99, 100, 102}
	a := write("a", steady, steady)
	for _, tc := range []struct {
		name      string
		lat, rate []float64
		code      int
	}{
		{"same", steady, steady, 0},
		{"slower", []float64{120, 121, 119, 120, 122}, steady, 1},
		{"faster", []float64{80, 81, 79, 80, 82}, []float64{120, 121, 119, 120, 122}, 0},
		{"noisy", []float64{60, 140, 100, 70, 130}, steady, 0},
		{"lower-rate", steady, []float64{80, 81, 79, 80, 82}, 1},
	} {
		b := write(tc.name, tc.lat, tc.rate)
		if code := compareMain([]string{"--spec", spec, a, b}); code != tc.code {
			t.Errorf("%s: exit code %d, want %d", tc.name, code, tc.code)
		}
	}
}

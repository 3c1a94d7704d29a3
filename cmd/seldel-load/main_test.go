package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/serve"
	"github.com/seldel/seldel/internal/simclock"
)

// startBackend stands up the real serving front-end over an in-memory
// chain whose registry holds the same deterministic user keys the load
// generator derives from -users / -key-seed.
func startBackend(t *testing.T, users int, keySeed string) string {
	t.Helper()
	reg := identity.NewRegistry()
	for i := 0; i < users; i++ {
		kp := identity.Deterministic(fmt.Sprintf("user%03d", i), keySeed)
		if err := reg.RegisterKey(kp, identity.RoleUser); err != nil {
			t.Fatal(err)
		}
	}
	c, err := chain.New(chain.Config{
		SequenceLength: 8,
		Registry:       reg,
		Clock:          simclock.NewLogical(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	s := serve.New(c, serve.Options{})
	t.Cleanup(func() { s.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := s.HTTPServer(ln.Addr().String())
	go func() { _ = hs.Serve(ln) }()
	t.Cleanup(func() { hs.Close() })
	return ln.Addr().String()
}

func TestLoadMixedWorkloadEndToEnd(t *testing.T) {
	addr := startBackend(t, 8, "load-test")
	out := filepath.Join(t.TempDir(), "load.json")
	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"-addr", addr, "-workload", "mixed",
		"-rate", "400", "-requests", "200",
		"-users", "8", "-key-seed", "load-test",
		"-json", out,
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	for _, want := range []string{"offered=400/s", "scheduled=200", "latency (from scheduled time)"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("output missing %q:\n%s", want, buf.String())
		}
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var row report
	if err := json.Unmarshal(data, &row); err != nil {
		t.Fatal(err)
	}
	if row.Workload != "mixed" || row.Scheduled != 200 {
		t.Errorf("load row: %+v", row)
	}
	if row.OKs+row.Sheds+row.Dropped != row.Scheduled {
		t.Errorf("accounting: ok %d + sheds %d + dropped %d != scheduled %d",
			row.OKs, row.Sheds, row.Dropped, row.Scheduled)
	}
	// Mixed is 70% append / 15% delete / 15% read and every delete
	// victim was seeded first, so the server must hold entries.
	if row.Errors != 0 {
		t.Errorf("%d errors against a healthy in-process server", row.Errors)
	}
}

// TestLoadAppendJSONRoundTrips pins what -json writes: the workload
// name beside a loadgen.Summary under the summary's own field names.
func TestLoadAppendJSONRoundTrips(t *testing.T) {
	addr := startBackend(t, 4, "load-test")
	out := filepath.Join(t.TempDir(), "load.json")
	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"-addr", addr, "-workload", "append",
		"-rate", "500", "-requests", "100",
		"-users", "4", "-key-seed", "load-test",
		"-json", out,
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var got report
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Workload != "append" || got.P99Micros <= 0 || got.Scheduled != 100 {
		t.Errorf("workload=%q p99_us=%d scheduled=%d in:\n%s", got.Workload, got.P99Micros, got.Scheduled, data)
	}
}

// TestSeedTargetsHonorsBackpressure pins the setup phase's contract
// with admission control: a 429 during seeding is waited out (honoring
// Retry-After) with a halved batch, not reported as a run failure —
// servers with tight admission budgets (group durability, small
// -max-pending) shed whole-batch seeds routinely.
func TestSeedTargetsHonorsBackpressure(t *testing.T) {
	var calls, maxAfterShed int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		var sr serve.SubmitRequest
		if err := json.NewDecoder(r.Body).Decode(&sr); err != nil {
			t.Errorf("decode: %v", err)
		}
		if calls <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			_, _ = w.Write([]byte(`{"error":"queue full","retry_after_sec":1}`))
			return
		}
		maxAfterShed = max(maxAfterShed, len(sr.Entries))
		resp := serve.SubmitResponse{Accepted: len(sr.Entries), Sealed: make([]serve.SealedJSON, len(sr.Entries))}
		for i := range resp.Sealed {
			resp.Sealed[i] = serve.SealedJSON{Ref: serve.RefJSON{Block: 1, Entry: uint32(i)}, Block: 1}
		}
		_ = json.NewEncoder(w).Encode(resp)
	}))
	defer srv.Close()

	h := &harness{
		base:   srv.URL,
		client: srv.Client(),
		keys:   []*identity.KeyPair{identity.Deterministic("user000", "load-test")},
	}
	refs, owners, err := h.seedTargets(context.Background(), 100, 32)
	if err != nil {
		t.Fatalf("seedTargets: %v", err)
	}
	if len(refs) != 100 || len(owners) != 100 {
		t.Fatalf("seeded %d refs / %d owners, want 100", len(refs), len(owners))
	}
	if calls <= 2 {
		t.Fatalf("server saw %d calls; the shed batches were never retried", calls)
	}
	// Two sheds halve 128 -> 64 -> 32: post-shed batches must fit the
	// reduced size.
	if maxAfterShed > 32 {
		t.Errorf("post-shed batch of %d entries; halving not applied", maxAfterShed)
	}
}

func TestLoadFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	for _, args := range [][]string{
		{"-workload", "bogus", "-addr", "127.0.0.1:1"},
		{"-rate", "0"},
		{"-bogus-flag"},
	} {
		if err := run(context.Background(), args, &buf); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	// Unreachable server: a clean error, not a hang or panic.
	if err := run(context.Background(), []string{"-addr", "127.0.0.1:1", "-requests", "1"}, &buf); err == nil {
		t.Error("unreachable server accepted")
	}
}

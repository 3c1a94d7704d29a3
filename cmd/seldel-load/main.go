// Command seldel-load drives a running seldel-serve open-loop: requests
// fire on a fixed schedule regardless of whether earlier responses came
// back, and latency is measured from each request's scheduled time, so
// server stalls show up in the tail quantiles instead of silently
// slowing the offered load (see README.md on coordinated omission).
//
// Usage:
//
//	seldel-load -addr 127.0.0.1:8420 -rate 1000 -duration 10s
//	seldel-load -addr 127.0.0.1:8420 -workload deletion-storm -requests 2000
//	seldel-load -addr 127.0.0.1:8420 -workload mixed -rate 500 -json load.json
//
// Workloads: "append" (signed data entries), "deletion-storm" (seed
// targets, then signed deletion requests), "read-churn" (paginated
// entry reads), "mixed" (70% append / 15% delete / 15% read). Entries
// are signed CLIENT-side with the same deterministic keys seldel-serve
// registers (-users / -key-seed must match the server's -keys /
// -key-seed).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/loadgen"
	"github.com/seldel/seldel/internal/serve"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "seldel-load:", err)
		os.Exit(1)
	}
}

// harness holds one run's fixed state: the target server, the signing
// keys, and the pre-encoded request bodies.
type harness struct {
	base   string
	client *http.Client
	keys   []*identity.KeyPair
	bodies [][]byte // per-index POST bodies ("" scheme requests are GETs)
	reads  []string // per-index GET paths for read-type requests
}

func (h *harness) key(i int) *identity.KeyPair { return h.keys[i%len(h.keys)] }

// classify maps one response to the open-loop outcome classes.
func classify(resp *http.Response, err error) loadgen.Class {
	if err != nil {
		return loadgen.Errored
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	switch resp.StatusCode {
	case http.StatusOK, http.StatusAccepted:
		return loadgen.OK
	case http.StatusTooManyRequests:
		return loadgen.Shed
	default:
		return loadgen.Errored
	}
}

// fire issues request i: a pre-encoded submit when bodies[i] is set, a
// pagination read otherwise.
func (h *harness) fire(ctx context.Context, i int) loadgen.Class {
	if b := h.bodies[i]; b != nil {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+"/v1/submit?wait=1", bytes.NewReader(b))
		if err != nil {
			return loadgen.Errored
		}
		req.Header.Set("Content-Type", "application/json")
		return classify(h.client.Do(req))
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.base+h.reads[i], nil)
	if err != nil {
		return loadgen.Errored
	}
	return classify(h.client.Do(req))
}

// submitBody pre-encodes one submit request.
func submitBody(entries ...*block.Entry) ([]byte, error) {
	req := serve.SubmitRequest{Entries: make([]serve.EntryJSON, len(entries))}
	for i, e := range entries {
		req.Entries[i] = serve.NewEntryJSON(e)
	}
	return json.Marshal(req)
}

// seedTargets appends n data entries through the server (blocking, NOT
// part of the measured run) and returns their sealed refs — the
// deletion-storm and mixed workloads' victims. Seeding is setup, not
// measurement, so a 429 is honored rather than reported: the batch
// waits out Retry-After and halves its size until it fits the server's
// admission budget (which can be far below 128 entries under tight
// -max-pending or small intake queues, e.g. group durability).
func (h *harness) seedTargets(ctx context.Context, n, payload int) ([]block.Ref, []string, error) {
	refs := make([]block.Ref, 0, n)
	owners := make([]string, 0, n)
	batch, sheds := 128, 0
	for off := 0; off < n; {
		m := min(batch, n-off)
		entries := make([]*block.Entry, m)
		for j := range entries {
			kp := h.key(off + j)
			entries[j] = block.NewData(kp.Name(), seedPayload(off+j, payload)).Sign(kp)
		}
		body, err := submitBody(entries...)
		if err != nil {
			return nil, nil, err
		}
		resp, err := h.client.Post(h.base+"/v1/submit?wait=1", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, nil, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			retry := time.Second
			if v, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && v > 0 {
				retry = time.Duration(v) * time.Second
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if sheds++; sheds > 64 {
				return nil, nil, fmt.Errorf("seeding: shed %d times; server admits too little for setup", sheds)
			}
			batch = max(batch/2, 1)
			select {
			case <-ctx.Done():
				return nil, nil, ctx.Err()
			case <-time.After(retry):
			}
			continue
		}
		var sr serve.SubmitResponse
		err = json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		if err != nil {
			return nil, nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, nil, fmt.Errorf("seeding: HTTP %d", resp.StatusCode)
		}
		for j, s := range sr.Sealed {
			if s.Error != "" {
				return nil, nil, fmt.Errorf("seeding entry %d: %s", off+j, s.Error)
			}
			refs = append(refs, s.Ref.Ref())
			owners = append(owners, entries[j].Owner)
		}
		off += m
	}
	return refs, owners, nil
}

func seedPayload(i, size int) []byte {
	p := fmt.Appendf(nil, "seed-%08d-", i)
	for len(p) < size {
		p = append(p, 'x')
	}
	return p
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("seldel-load", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8420", "seldel-serve address")
	workload := fs.String("workload", "append", "request mix: append, deletion-storm, read-churn, mixed")
	rate := fs.Float64("rate", 500, "offered load, requests/second (the open-loop schedule)")
	duration := fs.Duration("duration", 0, "run length (0: use -requests)")
	requests := fs.Int("requests", 2000, "request count (ignored when -duration is set)")
	users := fs.Int("users", 64, "deterministic signing keys (must match server -keys)")
	keySeed := fs.String("key-seed", "seldel-serve", "key-derivation seed (must match server -key-seed)")
	payload := fs.Int("payload", 64, "data-entry payload bytes")
	maxInflight := fs.Int("max-inflight", 4096, "in-flight safety valve (scheduled requests beyond it count as dropped)")
	jsonPath := fs.String("json", "", "write the workload name and the run's summary as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *rate <= 0 {
		return errors.New("-rate must be > 0")
	}
	total := *requests
	if *duration > 0 {
		// Open loop: the schedule alone decides the count. Pre-encode a
		// 10% margin so a fast run never starves the body table.
		total = int(*rate*(*duration).Seconds()*1.1) + 16
	}

	h := &harness{
		base:   "http://" + *addr,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 512, MaxConnsPerHost: 0}},
		keys:   make([]*identity.KeyPair, *users),
		bodies: make([][]byte, total),
		reads:  make([]string, total),
	}
	for i := range h.keys {
		h.keys[i] = identity.Deterministic(fmt.Sprintf("user%03d", i), *keySeed)
	}
	if _, err := h.client.Get(h.base + "/healthz"); err != nil {
		return fmt.Errorf("server not reachable: %w", err)
	}

	// Build the request table up front: all signing and JSON encoding
	// happens before the schedule starts, so the measured section holds
	// transport + server time only.
	type plan struct{ appends, deletes, reads int }
	var p plan
	switch *workload {
	case "append":
		p.appends = total
	case "deletion-storm":
		p.deletes = total
	case "read-churn":
		p.reads = total
	case "mixed":
		for i := 0; i < total; i++ {
			switch {
			case i%20 < 14:
				p.appends++
			case i%20 < 17:
				p.deletes++
			default:
				p.reads++
			}
		}
	default:
		return fmt.Errorf("unknown -workload %q", *workload)
	}
	var refs []block.Ref
	var owners []string
	if p.deletes > 0 {
		fmt.Fprintf(out, "seeding %d deletion targets...\n", p.deletes)
		var err error
		refs, owners, err = h.seedTargets(ctx, p.deletes, *payload)
		if err != nil {
			return err
		}
	}
	appendIdx, deleteIdx := 0, 0
	for i := 0; i < total; i++ {
		var kind string
		switch *workload {
		case "append":
			kind = "a"
		case "deletion-storm":
			kind = "d"
		case "read-churn":
			kind = "r"
		case "mixed":
			switch {
			case i%20 < 14:
				kind = "a"
			case i%20 < 17:
				kind = "d"
			default:
				kind = "r"
			}
		}
		switch kind {
		case "a":
			kp := h.key(i)
			e := block.NewData(kp.Name(), seedPayload(i, *payload)).Sign(kp)
			body, err := submitBody(e)
			if err != nil {
				return err
			}
			h.bodies[i] = body
			appendIdx++
		case "d":
			// Each victim is deleted by its own owner, satisfying the
			// default role-based deletion policy.
			kp := keyByName(h.keys, owners[deleteIdx])
			e := block.NewDeletion(kp.Name(), refs[deleteIdx]).Sign(kp)
			body, err := submitBody(e)
			if err != nil {
				return err
			}
			h.bodies[i] = body
			deleteIdx++
		case "r":
			h.reads[i] = "/v1/entries?limit=128"
		}
	}

	fmt.Fprintf(out, "offering %.0f req/s (%s) against %s...\n", *rate, *workload, *addr)
	sum := loadgen.Run(ctx, loadgen.Options{
		Rate:        *rate,
		Duration:    *duration,
		Requests:    boundRequests(*duration, total, *requests),
		MaxInflight: *maxInflight,
		Fire:        h.fire,
	})

	fmt.Fprintf(out, "workload=%s offered=%.0f/s achieved=%.0f/s wall=%.2fs\n",
		*workload, sum.Offered, sum.Achieved, sum.WallSec)
	fmt.Fprintf(out, "scheduled=%d ok=%d sheds=%d (%.1f%%) errors=%d dropped=%d\n",
		sum.Scheduled, sum.OKs, sum.Sheds, 100*sum.ShedFraction(), sum.Errors, sum.Dropped)
	fmt.Fprintf(out, "latency (from scheduled time): p50=%s p99=%s p999=%s max=%s\n",
		us(sum.P50Micros), us(sum.P99Micros), us(sum.P999Micro), us(sum.MaxMicros))

	if *jsonPath != "" {
		data, err := json.MarshalIndent(report{Workload: *workload, Summary: sum}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *jsonPath)
	}
	if sum.Errors > 0 {
		return fmt.Errorf("%d requests errored", sum.Errors)
	}
	return nil
}

// report is what -json writes: the workload name beside the summary's
// own fields.
type report struct {
	Workload string `json:"workload"`
	loadgen.Summary
}

// boundRequests picks the loadgen request bound: duration-driven runs
// are bounded by the body table, count-driven runs by -requests.
func boundRequests(d time.Duration, total, requests int) int {
	if d > 0 {
		return total
	}
	return requests
}

func keyByName(keys []*identity.KeyPair, name string) *identity.KeyPair {
	for _, kp := range keys {
		if kp.Name() == name {
			return kp
		}
	}
	return keys[0]
}

func us(v int64) string { return time.Duration(v * int64(time.Microsecond)).String() }

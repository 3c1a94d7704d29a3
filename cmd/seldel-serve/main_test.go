package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/seldel/seldel/internal/identity"

	seldel "github.com/seldel/seldel"
)

// startServe runs the command against an ephemeral port and returns
// its base URL plus a stop that cancels the run and waits for it to
// return, closing the chain and its store. Cleanup stops it too.
func startServe(t *testing.T, extraArgs ...string) (string, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan string, 1)
	errCh := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	go func() {
		errCh <- run(ctx, args, func(addr string) { addrCh <- addr })
	}()
	select {
	case addr := <-addrCh:
		var once sync.Once
		stop := func() {
			once.Do(func() {
				// A connection the client's transport dialed for a
				// request another connection then served sits idle on
				// the client's side, never having sent a request. The
				// server counts it idle only once it is 5 s old, so a
				// graceful shutdown with a 5 s budget could time out on
				// it. Close such connections first.
				http.DefaultClient.CloseIdleConnections()
				cancel()
				select {
				case err := <-errCh:
					if err != nil {
						t.Errorf("serve exited: %v", err)
					}
				case <-time.After(10 * time.Second):
					t.Error("serve did not shut down")
				}
			})
		}
		t.Cleanup(stop)
		return "http://" + addr, stop
	case err := <-errCh:
		t.Fatalf("serve failed to start: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("serve never reported ready")
	}
	panic("unreachable")
}

// users derives the first n of the keys seldel-serve registers under
// its default -key-seed, as a client signing on its own side would.
func users(n int) []*identity.KeyPair {
	keys := make([]*identity.KeyPair, n)
	for i := range keys {
		keys[i] = identity.Deterministic(fmt.Sprintf("user%03d", i), "seldel-serve")
	}
	return keys
}

// call sends one request and decodes the reply into out (when non-nil).
// Any status other than 200 is an error: these smokes expect no sheds,
// no conflicts and no misses.
func call(method, url string, body, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// submit posts one signed entry with ?wait=1 and returns its seal.
func submit(base string, e *seldel.Entry) (seldel.Ref, string, error) {
	var sr seldel.SubmitResponse
	req := seldel.SubmitRequest{Entries: []seldel.EntryJSON{seldel.NewEntryJSON(e)}}
	if err := call(http.MethodPost, base+"/v1/submit?wait=1", req, &sr); err != nil {
		return seldel.Ref{}, "", err
	}
	if len(sr.Sealed) != 1 || sr.Sealed[0].Error != "" {
		return seldel.Ref{}, "", fmt.Errorf("submit: sealed %+v", sr.Sealed)
	}
	return sr.Sealed[0].Ref.Ref(), sr.Sealed[0].Mark, nil
}

// page reads the page after cursor ("" for the first).
func page(t *testing.T, base, cursor string, limit int) seldel.EntryPage {
	t.Helper()
	url := fmt.Sprintf("%s/v1/entries?limit=%d", base, limit)
	if cursor != "" {
		url += "&after=" + cursor
	}
	var p seldel.EntryPage
	if err := call(http.MethodGet, url, nil, &p); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestServeSmoke drives an in-memory seldel-serve over a real socket:
// single-entry submits from a few concurrent clients, then one full
// cursor walk that must return every sealed entry exactly once, in ref
// order, with its payload.
func TestServeSmoke(t *testing.T) {
	base, _ := startServe(t)
	const requests, clients = 300, 6
	keys := users(8)
	refs := make([]seldel.Ref, requests)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < requests; i += clients {
				kp := keys[i%len(keys)]
				ref, _, err := submit(base, seldel.NewData(kp.Name(), fmt.Appendf(nil, "smoke %03d", i)).Sign(kp))
				if err != nil {
					t.Error(err)
					return
				}
				refs[i] = ref
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	want := make(map[seldel.Ref]string, requests)
	for i, ref := range refs {
		want[ref] = fmt.Sprintf("smoke %03d", i)
	}
	var walked []seldel.Ref
	for cursor, pages := "", 0; ; pages++ {
		if pages > requests {
			t.Fatal("cursor walk does not end")
		}
		p := page(t, base, cursor, 32)
		for _, e := range p.Entries {
			ref := e.Ref.Ref()
			if got := string(e.Entry.Payload); got != want[ref] {
				t.Errorf("entry %s: payload %q, want %q", ref, got, want[ref])
			}
			walked = append(walked, ref)
		}
		if cursor = p.Next; cursor == "" {
			break
		}
	}
	byRef := func(a, b seldel.Ref) int {
		return cmp.Or(cmp.Compare(a.Block, b.Block), cmp.Compare(a.Entry, b.Entry))
	}
	if len(walked) != requests || !slices.IsSortedFunc(walked, byRef) {
		t.Errorf("walk returned %d entries, want the %d sealed, each once in ref order", len(walked), requests)
	}

	var stats struct {
		Server struct {
			SealedEntries     int64 `json:"sealed_entries"`
			ShedRequests      int64 `json:"shed_requests"`
			MaxPendingEntries int64 `json:"max_pending_entries"`
		} `json:"server"`
	}
	if err := call(http.MethodGet, base+"/v1/stats", nil, &stats); err != nil {
		t.Fatal(err)
	}
	if s := stats.Server; s.SealedEntries != requests || s.ShedRequests != 0 || s.MaxPendingEntries == 0 {
		t.Errorf("stats: %+v, want %d sealed, no sheds and an admission budget", s, requests)
	}
}

// TestServeDurableSmoke drives a durable, group-committed, tightly
// bounded seldel-serve: appends, deletions by each victim's owner and
// page reads interleave for a few dozen rounds and until a deletion has
// executed. Every erased victim must be provable through
// GET /v1/prove-deleted. Then the server stops, and the store directory
// must show the erasure: no file holds an erased payload, the doctor
// reports clean, and only the store's own files are there.
func TestServeDurableSmoke(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	base, stop := startServe(t, "-store", dir, "-durability", "group", "-max-sequences", "2")
	type owned struct {
		ref     seldel.Ref
		owner   *identity.KeyPair
		payload []byte
	}
	keys := users(4)
	var appended, erased []owned
	victims := map[seldel.Ref]owned{}
	cursor := ""
	for round := 0; round < 64 || len(erased) == 0; round++ {
		if round == 256 {
			t.Fatal("no deletion executed in 256 rounds")
		}
		kp := keys[round%len(keys)]
		payload := fmt.Appendf(nil, "durable smoke %04d", round)
		ref, _, err := submit(base, seldel.NewData(kp.Name(), payload).Sign(kp))
		if err != nil {
			t.Fatal(err)
		}
		appended = append(appended, owned{ref, kp, payload})
		if round%4 == 3 {
			v := appended[round-2]
			_, mark, err := submit(base, seldel.NewDeletion(v.owner.Name(), v.ref).Sign(v.owner))
			if err != nil {
				t.Fatal(err)
			}
			if mark != "approved" {
				t.Fatalf("deletion of %s by its owner: mark %q", v.ref, mark)
			}
			victims[v.ref] = v
		}
		p := page(t, base, cursor, 8)
		for _, e := range p.Entries {
			if _, ok := victims[e.Ref.Ref()]; ok {
				t.Fatalf("page after %q lists deleted entry %s", cursor, e.Ref.Ref())
			}
		}
		cursor = p.Next

		var tombs struct{ Records []seldel.ManifestRecord }
		if err := call(http.MethodGet, base+"/v1/tombstones", nil, &tombs); err != nil {
			t.Fatal(err)
		}
		erased = erased[:0]
		for _, rec := range tombs.Records {
			for _, tomb := range rec.Tombstones {
				if v, ok := victims[tomb.Target]; ok {
					erased = append(erased, v)
				}
			}
		}
	}
	t.Logf("%d appends, %d deletions, %d executed", len(appended), len(victims), len(erased))
	for _, v := range erased {
		var reply struct{ Proof seldel.DeletedProof }
		url := fmt.Sprintf("%s/v1/prove-deleted?block=%d&entry=%d", base, v.ref.Block, v.ref.Entry)
		if err := call(http.MethodGet, url, nil, &reply); err != nil {
			t.Fatal(err)
		}
		if reply.Proof.Ref != v.ref {
			t.Fatalf("proof for %s, asked for %s", reply.Proof.Ref, v.ref)
		}
		if err := reply.Proof.Verify(); err != nil {
			t.Fatalf("proof of %s: %v", v.ref, err)
		}
	}

	stop()
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The newest entry is live, so some segment must hold its payload:
	// the control that the search for erased ones can see payloads.
	newest, seen := appended[len(appended)-1], false
	for _, de := range names {
		name := de.Name()
		if ok, _ := filepath.Match("seg-*.seg", name); !ok && name != "MANIFEST" && name != "DELETIONS" {
			t.Errorf("store directory holds %s", name)
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range erased {
			if bytes.Contains(data, v.payload) {
				t.Errorf("%s still holds the payload of erased entry %s", name, v.ref)
			}
		}
		seen = seen || bytes.Contains(data, newest.payload)
	}
	if !seen {
		t.Errorf("no file holds the payload of live entry %s", newest.ref)
	}
	rep, err := seldel.Doctor(dir, seldel.DoctorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Errorf("doctor: %+v", rep.Findings)
	}
}

func TestServeFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-durability", "group"},       // group commit requires -store
		{"-durability", "bogus"},       // unknown mode
		{"-partitions", "2"},           // undefined flag: one chain type
		{"-shed-frac", "1.5"},          // undefined flag: the budget is fixed
		{"-addr", "127.0.0.1:0", "-x"}, // unknown flag
	} {
		if err := run(context.Background(), args, func(string) {}); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

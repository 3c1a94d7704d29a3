package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/consensus"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/netsim"
	"github.com/seldel/seldel/internal/node"
	"github.com/seldel/seldel/internal/simclock"
)

// env bundles one test's registry and signing keys.
type env struct {
	registry *identity.Registry
	keys     map[string]*identity.KeyPair
}

func newTestEnv(t testing.TB, users ...string) *env {
	t.Helper()
	e := &env{registry: identity.NewRegistry(), keys: map[string]*identity.KeyPair{}}
	for _, u := range users {
		kp := identity.Deterministic(u, "serve-test")
		if err := e.registry.RegisterKey(kp, identity.RoleUser); err != nil {
			t.Fatal(err)
		}
		e.keys[u] = kp
	}
	return e
}

func (e *env) data(user, payload string) EntryJSON {
	return NewEntryJSON(block.NewData(user, []byte(payload)).Sign(e.keys[user]))
}

func (e *env) del(user string, target block.Ref) EntryJSON {
	return NewEntryJSON(block.NewDeletion(user, target).Sign(e.keys[user]))
}

// boundedChain builds an in-memory chain with the retention bound on,
// so deletions become physical truncations.
func boundedChain(t testing.TB, e *env, mutate ...func(*chain.Config)) *chain.Chain {
	t.Helper()
	cfg := chain.Config{
		SequenceLength: 3,
		MaxSequences:   2,
		Shrink:         chain.ShrinkAllButNewest,
		Registry:       e.registry,
		Clock:          simclock.NewLogical(0),
	}
	for _, m := range mutate {
		m(&cfg)
	}
	c, err := chain.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// testServer exposes backend over a real HTTP listener.
func testServer(t *testing.T, backend Backend, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(backend, opts)
	t.Cleanup(func() { s.Close() })
	hs := httptest.NewServer(s.mux)
	t.Cleanup(hs.Close)
	return s, hs
}

// postSubmit round-trips one submit request and decodes the reply.
func postSubmit(t *testing.T, url string, wait bool, entries ...EntryJSON) (*http.Response, SubmitResponse) {
	t.Helper()
	body, err := json.Marshal(SubmitRequest{Entries: entries})
	if err != nil {
		t.Fatal(err)
	}
	u := url + "/v1/submit"
	if wait {
		u += "?wait=1"
	}
	resp, err := http.Post(u, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr SubmitResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return resp, sr
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func TestSubmitWaitRoundTrip(t *testing.T) {
	e := newTestEnv(t, "alpha", "beta")
	c := boundedChain(t, e)
	_, hs := testServer(t, c, Options{})

	resp, sr := postSubmit(t, hs.URL, true,
		e.data("alpha", "one"), e.data("beta", "two"), e.data("alpha", "three"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if sr.Accepted != 3 || len(sr.Sealed) != 3 {
		t.Fatalf("accepted=%d sealed=%d", sr.Accepted, len(sr.Sealed))
	}
	for i, s := range sr.Sealed {
		if s.Error != "" {
			t.Fatalf("entry %d: %s", i, s.Error)
		}
		if s.BlockHash == "" {
			t.Errorf("entry %d: no block hash", i)
		}
	}
	// One submit call seals in one block.
	if sr.Sealed[0].Block != sr.Sealed[2].Block {
		t.Errorf("entries of one submit split across blocks %d and %d",
			sr.Sealed[0].Block, sr.Sealed[2].Block)
	}

	var page EntryPage
	getJSON(t, hs.URL+"/v1/entries", &page)
	if len(page.Entries) != 3 {
		t.Fatalf("entries = %d, want 3", len(page.Entries))
	}
	if page.Entries[0].Entry.Owner != "alpha" || string(page.Entries[0].Entry.Payload) != "one" {
		t.Errorf("first entry = %+v", page.Entries[0].Entry)
	}

	var stats StatsResponse
	getJSON(t, hs.URL+"/v1/stats", &stats)
	if stats.Server.AcceptedEntries != 3 || stats.Server.SealedEntries != 3 {
		t.Errorf("server stats = %+v", stats.Server)
	}
	if stats.Chain.LiveEntries != 3 {
		t.Errorf("chain live entries = %d", stats.Chain.LiveEntries)
	}
	if stats.Server.MaxPendingEntries <= 0 {
		t.Errorf("derived admission budget = %d", stats.Server.MaxPendingEntries)
	}
}

func TestSubmitRejectsBadRequests(t *testing.T) {
	e := newTestEnv(t, "alpha")
	c := boundedChain(t, e)
	_, hs := testServer(t, c, Options{})

	// Unknown kind.
	bad := e.data("alpha", "x")
	bad.Kind = "mystery"
	resp, _ := postSubmit(t, hs.URL, true, bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown kind: HTTP %d", resp.StatusCode)
	}
	// Payload over the per-entry cap.
	resp, _ = postSubmit(t, hs.URL, true, e.data("alpha", strings.Repeat("x", maxPayloadBytes+1)))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized payload: HTTP %d", resp.StatusCode)
	}
	// Too many entries in one request.
	many := make([]EntryJSON, maxEntriesPerRequest+1)
	for i := range many {
		many[i] = e.data("alpha", fmt.Sprint(i))
	}
	resp, _ = postSubmit(t, hs.URL, true, many...)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized request: HTTP %d", resp.StatusCode)
	}
	// Empty body.
	resp, _ = postSubmit(t, hs.URL, true)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty request: HTTP %d", resp.StatusCode)
	}
	// A signature forged over different bytes fails chain validation and
	// surfaces as a per-entry error, not a sealed ref.
	forged := e.data("alpha", "real")
	forged.Payload = []byte("tampered-payload")
	resp, sr := postSubmit(t, hs.URL, true, forged)
	if resp.StatusCode != http.StatusOK || len(sr.Sealed) != 1 || sr.Sealed[0].Error == "" {
		t.Errorf("tampered entry: HTTP %d sealed=%+v", resp.StatusCode, sr.Sealed)
	}
}

// TestSubmitBodyOverCapIs413: a body one byte over the cap is refused
// as too large, like too many entries are — not as malformed JSON.
func TestSubmitBodyOverCapIs413(t *testing.T) {
	e := newTestEnv(t, "alpha")
	_, hs := testServer(t, boundedChain(t, e), Options{})
	body := append([]byte("["), bytes.Repeat([]byte(" "), maxBodyBytes)...)
	resp, err := http.Post(hs.URL+"/v1/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("body of %d bytes: HTTP %d, want 413", len(body), resp.StatusCode)
	}
}

func TestSubmitAsyncReleasesBudget(t *testing.T) {
	e := newTestEnv(t, "alpha")
	c := boundedChain(t, e)
	s, hs := testServer(t, c, Options{})

	resp, sr := postSubmit(t, hs.URL, false, e.data("alpha", "fire"), e.data("alpha", "forget"))
	if resp.StatusCode != http.StatusAccepted || sr.Accepted != 2 {
		t.Fatalf("async submit: HTTP %d accepted=%d", resp.StatusCode, sr.Accepted)
	}
	// Receipts resolve in the background; the pending budget must drain
	// back to zero and the seal counters must catch up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s.adm.pending.Load() == 0 && s.sealed.Load() == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("budget never drained: pending=%d sealed=%d",
				s.adm.pending.Load(), s.sealed.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShedsHappenBeforeQueueOverflow saturates the front-end with
// concurrent submits against a tiny admission budget and asserts the
// overload answer is 429 + Retry-After BEFORE the pipeline's intake
// queue ever reaches capacity — no handler parks on a full queue.
// Run with -race (CI does): the sampler races the handlers by design.
func TestShedsHappenBeforeQueueOverflow(t *testing.T) {
	e := newTestEnv(t, "alpha")
	// A slow sealer, as under proof of work: receipts resolve slowly
	// enough for pending submissions to pile onto the admission budget.
	c := boundedChain(t, e, func(cfg *chain.Config) {
		cfg.MaxSequences = 0 // no truncation churn in this test
		cfg.Seal = func(*block.Block) error {
			time.Sleep(5 * time.Millisecond)
			return nil
		}
	})
	s, hs := testServer(t, c, Options{Admission: AdmissionOptions{MaxPending: 12}})

	// The pipeline starts lazily; one warm-up submit makes QueueCap real.
	if _, err := c.SubmitWait(context.Background(), block.NewData("alpha", []byte("warm-up")).Sign(e.keys["alpha"])); err != nil {
		t.Fatal(err)
	}
	queueCap := c.PipelineStats().QueueCap
	if queueCap <= 12 {
		t.Fatalf("queue cap %d not above the admission budget; test is vacuous", queueCap)
	}

	// Sample the intake depth at high frequency for the whole run.
	var maxDepth atomic.Int64
	samplerDone := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		defer close(samplerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			d := int64(c.PipelineStats().QueueDepth)
			for {
				old := maxDepth.Load()
				if d <= old || maxDepth.CompareAndSwap(old, d) {
					break
				}
			}
		}
	}()

	const clients = 32
	var wg sync.WaitGroup
	var sheds, oks atomic.Int64
	var retryAfterSeen atomic.Bool
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				entries := []EntryJSON{
					e.data("alpha", fmt.Sprintf("flood-%d-%d-a", g, i)),
					e.data("alpha", fmt.Sprintf("flood-%d-%d-b", g, i)),
				}
				body, _ := json.Marshal(SubmitRequest{Entries: entries})
				resp, err := http.Post(hs.URL+"/v1/submit?wait=1", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				switch resp.StatusCode {
				case http.StatusTooManyRequests:
					sheds.Add(1)
					if resp.Header.Get("Retry-After") != "" {
						retryAfterSeen.Store(true)
					}
				case http.StatusOK:
					oks.Add(1)
				default:
					t.Errorf("unexpected HTTP %d", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-samplerDone

	if sheds.Load() == 0 {
		t.Fatal("no sheds under 32-way flood with budget 12; admission control inert")
	}
	if oks.Load() == 0 {
		t.Fatal("every request shed; server never admitted anything")
	}
	if !retryAfterSeen.Load() {
		t.Error("no 429 carried a Retry-After header")
	}
	if got := maxDepth.Load(); got >= int64(queueCap) {
		t.Errorf("intake queue reached capacity (%d of %d) despite admission control", got, queueCap)
	}
	if s.ShedCount() != uint64(sheds.Load()) {
		t.Errorf("server counted %d sheds, clients saw %d", s.ShedCount(), sheds.Load())
	}
	// The shed answer includes the machine-readable backoff hint.
	var stats StatsResponse
	getJSON(t, hs.URL+"/v1/stats", &stats)
	if stats.Server.ShedRequests == 0 {
		t.Error("stats endpoint lost the shed counter")
	}
}

// collectPages pages through /v1/entries with the given limit,
// returning every (ref, payload) in order and failing on duplicates.
func collectPages(t *testing.T, base string, limit int, between func(pageNo int)) map[string]string {
	t.Helper()
	seen := map[string]string{}
	cursor := ""
	for pageNo := 0; ; pageNo++ {
		if pageNo > 1000 {
			t.Fatal("pagination never terminated")
		}
		url := fmt.Sprintf("%s/v1/entries?limit=%d", base, limit)
		if cursor != "" {
			url += "&after=" + cursor
		}
		var page EntryPage
		getJSON(t, url, &page)
		for _, it := range page.Entries {
			key := it.Ref.Ref().String()
			if _, dup := seen[key]; dup {
				t.Fatalf("duplicate ref %s across pages", key)
			}
			seen[key] = string(it.Entry.Payload)
		}
		if page.Next == "" {
			return seen
		}
		cursor = page.Next
		if between != nil {
			between(pageNo)
		}
	}
}

// TestPaginationCursorStableAcrossTruncation starts a paginated scan,
// fires a deletion-driven truncation between pages, and asserts the
// cursor semantics hold on every backend: no reference is ever returned
// twice, and every entry that stayed live through the whole scan is
// returned.
func TestPaginationCursorStableAcrossTruncation(t *testing.T) {
	e := newTestEnv(t, seekUsers...)
	for _, kit := range testBackends(t, e) {
		t.Run(kit.name, func(t *testing.T) {
			_, hs := testServer(t, kit.b, Options{})
			ctx := context.Background()

			// Seed: 12 keepers and one victim.
			keepers := map[string]bool{}
			for i := 0; i < 12; i++ {
				u := seekUsers[i%len(seekUsers)]
				sealed, err := kit.b.SubmitWait(ctx, block.NewData(u, fmt.Appendf(nil, "keep-%02d", i)).Sign(e.keys[u]))
				if err != nil {
					t.Fatal(err)
				}
				keepers[sealed[0].Ref.String()] = true
			}
			victim, err := kit.b.SubmitWait(ctx, block.NewData("alpha", []byte("victim")).Sign(e.keys["alpha"]))
			if err != nil {
				t.Fatal(err)
			}

			truncated := false
			truncate := func(pageNo int) {
				if truncated || pageNo != 1 {
					return
				}
				truncated = true
				if _, err := kit.b.SubmitWait(ctx, block.NewDeletion("alpha", victim[0].Ref).Sign(e.keys["alpha"])); err != nil {
					t.Fatal(err)
				}
				// Churn until the victim no longer resolves: the deletion
				// has physically executed and carried survivors moved into
				// the summary block — mid-scan.
				for i := 0; ; i++ {
					if _, _, ok := kit.holder(victim[0].Ref).Lookup(victim[0].Ref); !ok {
						break
					}
					if i > 64 {
						t.Fatal("truncation never executed")
					}
					if err := churn(ctx, e, kit.b, fmt.Sprintf("churn-%02d", i), 1); err != nil {
						t.Fatal(err)
					}
					if err := kit.settle(ctx); err != nil {
						t.Fatal(err)
					}
				}
			}

			seen := collectPages(t, hs.URL, 3, truncate)
			for ref := range keepers {
				if _, ok := seen[ref]; !ok {
					t.Errorf("keeper %s missing from the paginated scan after truncation", ref)
				}
			}
			if !truncated {
				t.Fatal("scan finished before the truncation hook ran; test is vacuous")
			}

			// Under concurrent churn (readers racing writers and
			// truncations, -race coverage): duplicates must still never
			// appear and keepers never go missing. The churner is bounded
			// so the scan terminates once it catches up.
			var writer sync.WaitGroup
			writer.Add(1)
			go func() {
				defer writer.Done()
				if err := churn(ctx, e, kit.b, "live", 25); err != nil {
					t.Error(err)
				}
			}()
			seen = collectPages(t, hs.URL, 5, nil)
			writer.Wait()
			for ref := range keepers {
				if _, ok := seen[ref]; !ok {
					t.Errorf("keeper %s missing from the scan under churn", ref)
				}
			}
		})
	}
}

func TestTombstonesAndProveDeleted(t *testing.T) {
	e := newTestEnv(t, "alpha")
	c := boundedChain(t, e)
	_, hs := testServer(t, c, Options{})
	ctx := context.Background()

	sealed, err := c.SubmitWait(ctx, block.NewData("alpha", []byte("doomed")).Sign(e.keys["alpha"]))
	if err != nil {
		t.Fatal(err)
	}
	victim := sealed[0].Ref
	if _, err := c.SubmitWait(ctx, block.NewDeletion("alpha", victim).Sign(e.keys["alpha"])); err != nil {
		t.Fatal(err)
	}
	for i := 0; c.Marker() <= victim.Block; i++ {
		if i > 64 {
			t.Fatal("truncation never executed")
		}
		if _, err := c.SubmitWait(ctx, block.NewData("alpha", fmt.Appendf(nil, "churn-%02d", i)).Sign(e.keys["alpha"])); err != nil {
			t.Fatal(err)
		}
		if err := c.CompactWait(ctx); err != nil {
			t.Fatal(err)
		}
	}

	var tombs struct {
		Records []json.RawMessage `json:"records"`
	}
	getJSON(t, hs.URL+"/v1/tombstones", &tombs)
	if len(tombs.Records) == 0 {
		t.Fatal("no tombstone records after truncation")
	}

	resp := getJSON(t, fmt.Sprintf("%s/v1/prove-deleted?block=%d&entry=%d", hs.URL, victim.Block, victim.Entry), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prove-deleted: HTTP %d", resp.StatusCode)
	}
	// A live entry draws 409 (exists, not deleted); a never-existed ref 404.
	live, err := c.SubmitWait(ctx, block.NewData("alpha", []byte("alive")).Sign(e.keys["alpha"]))
	if err != nil {
		t.Fatal(err)
	}
	resp = getJSON(t, fmt.Sprintf("%s/v1/prove-deleted?block=%d&entry=%d", hs.URL, live[0].Ref.Block, live[0].Ref.Entry), nil)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("live entry: HTTP %d, want 409", resp.StatusCode)
	}
	resp = getJSON(t, hs.URL+"/v1/prove-deleted?block=999999&entry=7", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown ref: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestStreamingEntries reads ?stream=1 on every backend while a writer
// churns the window under it: the stream is a walk of several seeks (the
// seed is longer than one chunk), so its refs must strictly ascend and
// every entry that was live before it started must be in it.
func TestStreamingEntries(t *testing.T) {
	e := newTestEnv(t, seekUsers...)
	for _, kit := range testBackends(t, e) {
		t.Run(kit.name, func(t *testing.T) {
			_, hs := testServer(t, kit.b, Options{})
			ctx := context.Background()
			seeded := map[block.Ref]bool{}
			for i := 0; len(seeded) < 2*streamChunk+44; i++ {
				batch := make([]*block.Entry, 0, 40)
				for j := 0; j < 10; j++ {
					for _, u := range seekUsers {
						batch = append(batch, block.NewData(u, fmt.Appendf(nil, "s-%02d-%02d", i, j)).Sign(e.keys[u]))
					}
				}
				sealed, err := kit.b.SubmitWait(ctx, batch...)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range sealed {
					seeded[s.Ref] = true
				}
			}
			var writer sync.WaitGroup
			writer.Add(1)
			go func() {
				defer writer.Done()
				if err := churn(ctx, e, kit.b, "live", 25); err != nil {
					t.Error(err)
				}
			}()
			streamed := streamAll(t, hs.URL)
			writer.Wait()
			for _, it := range streamed {
				delete(seeded, it.Ref.Ref())
			}
			if len(seeded) > 0 {
				t.Errorf("stream of %d entries missed %d that were live throughout", len(streamed), len(seeded))
			}
		})
	}
}

func TestNodeBackend(t *testing.T) {
	net := netsim.New(netsim.Config{})
	t.Cleanup(net.Close)
	reg := identity.NewRegistry()
	anchor := identity.Deterministic("anchor-0", "serve-test")
	if err := reg.RegisterKey(anchor, identity.RoleMaster); err != nil {
		t.Fatal(err)
	}
	user := identity.Deterministic("alpha", "serve-test")
	if err := reg.RegisterKey(user, identity.RoleUser); err != nil {
		t.Fatal(err)
	}
	quorum, err := consensus.NewQuorum([]string{"anchor-0"})
	if err != nil {
		t.Fatal(err)
	}
	nd, err := node.New(node.Config{
		Key: anchor,
		Chain: chain.Config{
			SequenceLength: 3,
			Registry:       reg,
			Clock:          simclock.NewLogical(0),
		},
		Quorum:  quorum,
		Network: net,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nd.Close() })
	_, hs := testServer(t, nd, Options{})

	kp := user
	resp, sr := postSubmit(t, hs.URL, true, NewEntryJSON(block.NewData("alpha", []byte("via-node")).Sign(kp)))
	if resp.StatusCode != http.StatusOK || len(sr.Sealed) != 1 || sr.Sealed[0].Error != "" {
		t.Fatalf("node submit: HTTP %d sealed=%+v", resp.StatusCode, sr.Sealed)
	}
	var stats StatsResponse
	getJSON(t, hs.URL+"/v1/stats", &stats)
	if stats.Chain.LiveEntries != 1 {
		t.Errorf("node chain live entries = %d", stats.Chain.LiveEntries)
	}
}

func TestCursorParsing(t *testing.T) {
	if _, have, err := parseCursor(""); err != nil || have {
		t.Errorf("empty cursor: have=%v err=%v", have, err)
	}
	ref, have, err := parseCursor("12/3")
	if err != nil || !have || ref != (block.Ref{Block: 12, Entry: 3}) {
		t.Errorf("12/3 -> %v have=%v err=%v", ref, have, err)
	}
	for _, bad := range []string{"12", "a/b", "1/-2", "/", "1/2/3"} {
		if _, _, err := parseCursor(bad); err == nil {
			t.Errorf("cursor %q accepted", bad)
		}
	}
}

func TestAdmissionBudgetDerivation(t *testing.T) {
	// Derived budget sits strictly below a small queue's capacity.
	a := newAdmission(AdmissionOptions{}, 32, func() float64 { return 0 })
	defer a.close()
	if a.maxPending >= 32 {
		t.Errorf("derived budget %d not below queue cap 32", a.maxPending)
	}
	// Large queues derive ShedFraction * cap.
	b := newAdmission(AdmissionOptions{}, 1000, func() float64 { return 0 })
	defer b.close()
	if b.maxPending != 750 {
		t.Errorf("derived budget %d, want 750", b.maxPending)
	}
	// The sampled gauge sheds on its own once it crosses ShedFraction,
	// even with the pending budget idle.
	frac := atomic.Uint64{}
	c := newAdmission(AdmissionOptions{}, 1000,
		func() float64 { return float64(frac.Load()) })
	defer c.close()
	if !c.admit(1) {
		t.Error("idle admission refused")
	}
	c.release(1)
	frac.Store(1)
	deadline := time.Now().Add(2 * time.Second)
	for c.admit(1) {
		c.release(1)
		if time.Now().After(deadline) {
			t.Fatal("saturated gauge never tripped admission")
		}
		time.Sleep(time.Millisecond)
	}
}

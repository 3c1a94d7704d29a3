package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"testing"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/consensus"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/mempool"
	"github.com/seldel/seldel/internal/netsim"
	"github.com/seldel/seldel/internal/node"
	"github.com/seldel/seldel/internal/simclock"
	"github.com/seldel/seldel/internal/store/segment"
)

// refAfter orders references: the pagination cursor admits exactly the
// refs strictly greater than it.
func refAfter(r, cursor block.Ref) bool {
	if r.Block != cursor.Block {
		return r.Block > cursor.Block
	}
	return r.Entry > cursor.Entry
}

// waitBackend is a Backend the tests also write through synchronously.
type waitBackend interface {
	Backend
	SubmitWait(ctx context.Context, entries ...*block.Entry) ([]mempool.Sealed, error)
}

// liveAfter is how the server built a page before the backends had an
// ordered seek, kept as the oracle the seek is held to: walk EntriesSeq
// over the whole live set, keep the refs strictly greater than the
// cursor, and sort them, because a summary block sits at the HEAD of the
// window while its carried entries keep their small origin refs.
func liveAfter(b Backend, cursor block.Ref, haveCursor bool) []chain.RefEntry {
	var out []chain.RefEntry
	for ref, e := range b.EntriesSeq() {
		if haveCursor && !refAfter(ref, cursor) {
			continue
		}
		out = append(out, chain.RefEntry{Ref: ref, Entry: e})
	}
	sort.Slice(out, func(i, j int) bool { return refAfter(out[j].Ref, out[i].Ref) })
	return out
}

// backendKit is one engine shape behind the Backend interface, with the
// chain-level probes the tests need beside it.
type backendKit struct {
	name string
	b    waitBackend
	// holder returns the chain that holds (or held) ref.
	holder func(block.Ref) *chain.Chain
	// settle waits out pending compactions.
	settle func(context.Context) error
}

// testBackends builds both engine shapes over e's registry with the
// retention bound on: a single chain and a single-anchor cluster node.
func testBackends(t *testing.T, e *env) []backendKit {
	t.Helper()
	c := boundedChain(t, e)

	net := netsim.New(netsim.Config{})
	t.Cleanup(net.Close)
	anchor := identity.Deterministic("anchor-0", "serve-test")
	if err := e.registry.RegisterKey(anchor, identity.RoleMaster); err != nil {
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
			MaxSequences:   2,
			Shrink:         chain.ShrinkAllButNewest,
			Registry:       e.registry,
			Clock:          simclock.NewLogical(0),
		},
		Quorum:  quorum,
		Network: net,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nd.Close() })

	return []backendKit{
		{"chain", c, func(block.Ref) *chain.Chain { return c }, c.CompactWait},
		{"node", nd, func(block.Ref) *chain.Chain { return nd.Chain() },
			func(ctx context.Context) error { return nd.Chain().CompactWait(ctx) }},
	}
}

var seekUsers = []string{"alpha", "beta", "gamma", "delta"}

// churn writes n rounds of one entry per user.
func churn(ctx context.Context, e *env, b waitBackend, tag string, n int) error {
	for i := 0; i < n; i++ {
		for _, u := range seekUsers {
			if _, err := b.SubmitWait(ctx, block.NewData(u, fmt.Appendf(nil, "%s-%s-%04d", tag, u, i)).Sign(e.keys[u])); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkSeekAgainstOracle holds b.EntriesAfter to liveAfter at every
// cursor position — none, every live ref, the gaps beside it, past the
// head — for several limits, and the marked-entry filter to the owning
// chain's IsMarked.
func checkSeekAgainstOracle(t *testing.T, kit backendKit) {
	t.Helper()
	all := liveAfter(kit.b, block.Ref{}, false)
	cursors := []block.Ref{{}, {Block: math.MaxUint64, Entry: math.MaxUint32}}
	for _, it := range all {
		cursors = append(cursors, it.Ref,
			block.Ref{Block: it.Ref.Block, Entry: it.Ref.Entry + 1},
			block.Ref{Block: it.Ref.Block, Entry: math.MaxUint32},
			block.Ref{Block: it.Ref.Block - 1, Entry: math.MaxUint32})
	}
	for _, skipMarked := range []bool{false, true} {
		for _, limit := range []int{1, 4, math.MaxInt} {
			for i, cur := range cursors {
				haveCursor := i > 0
				var want []chain.RefEntry
				for _, it := range liveAfter(kit.b, cur, haveCursor) {
					if len(want) < limit && !(skipMarked && kit.holder(it.Ref).IsMarked(it.Ref)) {
						want = append(want, it)
					}
				}
				got := kit.b.EntriesAfter(cur, haveCursor, limit, skipMarked)
				if len(got) != len(want) {
					t.Fatalf("%s: after=%s have=%v limit=%d skipMarked=%v: %d entries, oracle %d",
						kit.name, cur, haveCursor, limit, skipMarked, len(got), len(want))
				}
				for k := range got {
					if got[k] != want[k] {
						t.Fatalf("%s: after=%s have=%v limit=%d skipMarked=%v: entry %d is %s, oracle %s",
							kit.name, cur, haveCursor, limit, skipMarked, k, got[k].Ref, want[k].Ref)
					}
				}
			}
		}
	}
}

// TestSeekMatchesSortedScanOnEveryBackend runs a random write/delete
// workload against a single chain and a node, and holds each backend's
// seek to the sort-of-EntriesSeq oracle.
func TestSeekMatchesSortedScanOnEveryBackend(t *testing.T) {
	ctx := context.Background()
	e := newTestEnv(t, seekUsers...)
	for _, kit := range testBackends(t, e) {
		rng := rand.New(rand.NewSource(1))
		type owned struct {
			ref   block.Ref
			owner string
		}
		var sealed []owned
		marked := 0
		for step := 0; step < 40; step++ {
			if rng.Intn(4) == 0 && len(sealed) > 0 {
				v := sealed[rng.Intn(len(sealed))]
				if _, err := kit.b.SubmitWait(ctx, block.NewDeletion(v.owner, v.ref).Sign(e.keys[v.owner])); err != nil {
					t.Fatal(err)
				}
			} else {
				u := seekUsers[rng.Intn(len(seekUsers))]
				res, err := kit.b.SubmitWait(ctx,
					block.NewData(u, fmt.Appendf(nil, "a-%d", step)).Sign(e.keys[u]),
					block.NewData(u, fmt.Appendf(nil, "b-%d", step)).Sign(e.keys[u]))
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range res {
					sealed = append(sealed, owned{s.Ref, u})
				}
			}
			if step%5 == 4 {
				checkSeekAgainstOracle(t, kit)
				marked += kit.b.Stats().ActiveMarks
			}
		}
		st := kit.b.Stats()
		if st.CutBlocks == 0 || st.CarriedEntries == 0 || marked == 0 {
			t.Fatalf("%s: cut=%d carried=%d marked=%d; the test is vacuous", kit.name, st.CutBlocks, st.CarriedEntries, marked)
		}
	}
}

// TestSeekOnChainReopenedFromSegmentStore reopens a ShrinkMinimal chain
// from its segment store — several summaries are live and enter the
// ledger one after the other with interleaved origins — and holds the
// seek to the oracle before and after the chain grows on.
func TestSeekOnChainReopenedFromSegmentStore(t *testing.T) {
	ctx := context.Background()
	e := newTestEnv(t, seekUsers...)
	dir := t.TempDir()
	cfg := chain.Config{
		SequenceLength: 3,
		MaxSequences:   4,
		Shrink:         chain.ShrinkMinimal,
		Registry:       e.registry,
		Clock:          simclock.NewLogical(0),
	}
	open := func() *chain.Chain {
		s, err := segment.Open(dir, segment.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Clock = simclock.NewLogical(0)
		c, err := chain.Open(cfg, s)
		if err != nil {
			t.Fatal(err)
		}
		c.Own(s)
		return c
	}
	c := open()
	if err := churn(ctx, e, c, "first-life", 12); err != nil {
		t.Fatal(err)
	}
	victim := liveAfter(c, block.Ref{}, false)[3]
	if _, err := c.SubmitWait(ctx, block.NewDeletion(victim.Entry.Owner, victim.Ref).Sign(e.keys[victim.Entry.Owner])); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c = open()
	defer c.Close()
	summaries := 0
	for b := range c.BlocksSeq() {
		if b.IsSummary() && len(b.Carried) > 0 {
			summaries++
		}
	}
	if summaries < 2 {
		t.Fatalf("%d non-empty live summaries after reopen; the test is vacuous", summaries)
	}
	kit := backendKit{"reopened", c, func(block.Ref) *chain.Chain { return c }, c.CompactWait}
	checkSeekAgainstOracle(t, kit)
	if err := churn(ctx, e, c, "second-life", 5); err != nil {
		t.Fatal(err)
	}
	checkSeekAgainstOracle(t, kit)
}

// TestApprovedDeletionLeavesThePageAtOnce pins the read-path filter: once
// a deletion request is approved, the very next page omits the victim,
// although the chain still holds it (Lookup resolves, prove-deleted says
// 409) until the next marker shift erases it.
func TestApprovedDeletionLeavesThePageAtOnce(t *testing.T) {
	e := newTestEnv(t, seekUsers...)
	for _, kit := range testBackends(t, e) {
		t.Run(kit.name, func(t *testing.T) {
			_, hs := testServer(t, kit.b, Options{})
			resp, sr := postSubmit(t, hs.URL, true, e.data("alpha", "keep"), e.data("alpha", "victim"))
			if resp.StatusCode != http.StatusOK || sr.Sealed[1].Error != "" {
				t.Fatalf("submit: HTTP %d %+v", resp.StatusCode, sr.Sealed)
			}
			keep, victim := sr.Sealed[0].Ref.Ref(), sr.Sealed[1].Ref.Ref()
			if seen := collectPages(t, hs.URL, 1, nil); seen[victim.String()] != "victim" {
				t.Fatalf("victim %s not served before its deletion: %v", victim, seen)
			}

			resp, sr = postSubmit(t, hs.URL, true, e.del("alpha", victim))
			if resp.StatusCode != http.StatusOK || sr.Sealed[0].Mark != "approved" {
				t.Fatalf("deletion: HTTP %d %+v", resp.StatusCode, sr.Sealed)
			}
			seen := collectPages(t, hs.URL, 1, nil)
			if _, served := seen[victim.String()]; served {
				t.Errorf("page still serves %s after its deletion was approved", victim)
			}
			if seen[keep.String()] != "keep" {
				t.Errorf("keeper %s missing: %v", keep, seen)
			}
			// The stream filters alike.
			for _, it := range streamAll(t, hs.URL) {
				if it.Ref.Ref() == victim {
					t.Errorf("stream still serves %s after its deletion was approved", victim)
				}
			}
			// Not erased yet: the chain resolves it, and there is nothing
			// to prove.
			if _, _, ok := kit.holder(victim).Lookup(victim); !ok {
				t.Fatalf("victim %s already erased; the test is vacuous", victim)
			}
			resp = getJSON(t, fmt.Sprintf("%s/v1/prove-deleted?block=%d&entry=%d", hs.URL, victim.Block, victim.Entry), nil)
			if resp.StatusCode != http.StatusConflict {
				t.Errorf("prove-deleted before the cut: HTTP %d, want 409", resp.StatusCode)
			}
		})
	}
}

// streamAll reads a whole ?stream=1 response, failing on refs that do
// not strictly ascend.
func streamAll(t *testing.T, base string) []EntryWithRef {
	t.Helper()
	resp, err := http.Get(base + "/v1/entries?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content-type %q", ct)
	}
	var out []EntryWithRef
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var it EntryWithRef
		if err := dec.Decode(&it); err != nil {
			t.Fatal(err)
		}
		if n := len(out); n > 0 && !refAfter(it.Ref.Ref(), out[n-1].Ref.Ref()) {
			t.Fatalf("stream yields %s after %s", it.Ref.Ref(), out[n-1].Ref.Ref())
		}
		out = append(out, it)
	}
	return out
}

// liveSetChain builds a chain in the repo benchmark's geometry (8x8,
// ShrinkMinimal) holding live entries, most of them carried. They are
// one signed entry submitted over and over: every copy gets its own ref,
// and the verify cache spares the caller that many signature checks.
func liveSetChain(tb testing.TB, live int) *chain.Chain {
	tb.Helper()
	e := newTestEnv(tb, "alpha")
	c := boundedChain(tb, e, func(cfg *chain.Config) {
		cfg.SequenceLength = 8
		cfg.MaxSequences = 8
		cfg.Shrink = chain.ShrinkMinimal
	})
	entry := block.NewData("alpha", make([]byte, 256)).Sign(e.keys["alpha"])
	batch := make([]*block.Entry, 100)
	for i := range batch {
		batch[i] = entry
	}
	for n := 0; n < live; n += len(batch) {
		if _, err := c.SubmitWait(context.Background(), batch...); err != nil {
			tb.Fatal(err)
		}
	}
	if st := c.Stats(); st.LiveEntries != live || st.CarriedEntries < live/2 {
		tb.Fatalf("live=%d carried=%d, want %d live and most of it carried", st.LiveEntries, st.CarriedEntries, live)
	}
	return c
}

// TestEntriesScannedStaysWithinThePage is the read-cost gate: walking the
// whole cursor over a 30 000-entry live set, most of it carried, the
// seeks copy out at most one entry per page beyond what the pages return
// (sorting EntriesSeq per page scanned ~113 entries per entry returned).
func TestEntriesScannedStaysWithinThePage(t *testing.T) {
	const live = 30000
	c := liveSetChain(t, live)
	_, hs := testServer(t, c, Options{})
	returned := len(collectPages(t, hs.URL, 256, nil))
	if returned != live {
		t.Fatalf("the walk returned %d entries, want %d", returned, live)
	}
	var stats StatsResponse
	getJSON(t, hs.URL+"/v1/stats", &stats)
	pages, scanned := stats.Server.ReadPages, stats.Server.EntriesScanned
	if want := uint64((live + 255) / 256); pages != want {
		t.Errorf("read_pages = %d, want %d", pages, want)
	}
	if scanned < uint64(returned) || scanned > uint64(returned)+pages {
		t.Errorf("entries_scanned = %d for %d returned over %d pages, want within returned + pages", scanned, returned, pages)
	}
}

// BenchmarkEntriesPage measures one /v1/entries page of 256 through the
// handler at the first and at the last cursor of a 30 000-entry live set.
// When a page sorted the whole live set, the first page (everything
// passes the cursor filter, is converted and sorted) cost about ten times
// the last; a seek costs the same at either end.
func BenchmarkEntriesPage(b *testing.B) {
	const live = 30000
	c := liveSetChain(b, live)
	s := New(c, Options{})
	defer s.Close()
	all := c.EntriesAfter(block.Ref{}, false, live, true)
	for _, cur := range []struct{ name, query string }{
		{"first", ""},
		{"last", "&after=" + all[len(all)-257].Ref.String()},
	} {
		req, err := http.NewRequest(http.MethodGet, "/v1/entries?limit=256"+cur.query, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(cur.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := discardResponse{header: http.Header{}}
				s.mux.ServeHTTP(&w, req)
				if w.status != http.StatusOK {
					b.Fatalf("HTTP %d", w.status)
				}
			}
		})
	}
}

// discardResponse is an http.ResponseWriter that drops the body.
type discardResponse struct {
	header http.Header
	status int
}

func (w *discardResponse) Header() http.Header         { return w.header }
func (w *discardResponse) WriteHeader(s int)           { w.status = s }
func (w *discardResponse) Write(p []byte) (int, error) { return len(p), nil }

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sync"
	"time"

	"github.com/seldel/seldel"
)

const pageLimit = 256

// httpWriter sends single-entry submits over HTTP, every
// deleteEvery-th a deletion request: closed loop as read's writer (the
// next request once the previous reply is in), open loop as the short
// write probe the other workloads end with (request i is due at
// t0 + i/rate, and its latency runs from that scheduled time).
type httpWriter struct {
	r           *run
	t0          time.Time
	interval    time.Duration // open loop only
	deleteEvery int
	conns       []int // client connections the requests rotate over
	mu          sync.Mutex
	rng         *rand.Rand
}

func (r *run) newWriter(deleteEvery int, conns ...int) *httpWriter {
	return &httpWriter{r: r, deleteEvery: deleteEvery, conns: conns, rng: r.rng(3)}
}

// load sends the given number of requests open loop through seldel.RunLoad.
func (w *httpWriter) load(rate float64, requests int) seldel.LoadSummary {
	w.t0, w.interval = time.Now(), time.Duration(float64(time.Second)/rate)
	return seldel.RunLoad(w.r.ctx, seldel.LoadOptions{Rate: rate, Requests: requests, Fire: w.fire})
}

// loop sends request after request until stop reports true.
func (w *httpWriter) loop(stop func() bool) {
	for i := 0; !stop() && w.r.err() == nil; i++ {
		w.send(i, time.Now())
	}
}

func submitBody(e *seldel.Entry) []byte {
	b, err := json.Marshal(seldel.SubmitRequest{Entries: []seldel.EntryJSON{seldel.NewEntryJSON(e)}})
	if err != nil {
		panic(err) // plain structs of strings and bytes
	}
	return b
}

func (w *httpWriter) fire(_ context.Context, i int) seldel.LoadClass {
	due := w.t0.Add(time.Duration(i) * w.interval)
	w.r.late.add(time.Since(due))
	return w.send(i, due)
}

// send issues request i, whose latency runs from due.
func (w *httpWriter) send(i int, due time.Time) seldel.LoadClass {
	r := w.r
	on := r.tr.active()
	r.attempted.Add(1)

	var v *victim
	var k int
	var e *seldel.Entry
	if w.deleteEvery > 0 && i%w.deleteEvery == w.deleteEvery-1 {
		w.mu.Lock()
		vs, es := r.deletions(w.rng, 1, due)
		w.mu.Unlock()
		if len(vs) == 1 {
			v, e = vs[0], es[0]
		}
	}
	if v == nil {
		var ok bool
		if k, ok = r.takeK(1); !ok {
			r.fail("entry pool used up")
			return seldel.LoadErrored
		}
		e = r.pool.entry(k)
	}
	sr, class := w.post(i, e)
	if class != seldel.LoadOK {
		r.failed.Add(1)
		if v == nil && r.inWindow(due) {
			r.writeFailures.Add(1)
		}
		if v != nil {
			r.acks.lose(v.k)
		}
		return class
	}
	end := time.Now()
	s := sr.Sealed[0]
	kind := "http.submit"
	if v != nil {
		kind = "http.delete"
		r.settle(v, s.Mark, s.Block)
		if !due.Before(r.winStart) {
			r.marks.add(end.Sub(due))
		}
	} else {
		r.acks.ack(k, s.Ref.Ref())
	}
	if r.inWindow(due) {
		d := end.Sub(due)
		r.writes.addAt(end, d)
		r.writesOnOff[b2i(on)].add(d)
		if v == nil {
			r.ackInWindow(1, end)
		}
	}
	if on {
		r.tr.op(opRec{ival: ival{int64(due.Sub(r.start)), int64(end.Sub(r.start))}, kind: kind, block: s.Block, on: true, key: sigKey(e)})
	}
	return seldel.LoadOK
}

// post sends one single-entry submit and decodes its reply.
func (w *httpWriter) post(i int, e *seldel.Entry) (seldel.SubmitResponse, seldel.LoadClass) {
	var sr seldel.SubmitResponse
	c := w.r.clients[w.conns[i%len(w.conns)]]
	resp, err := c.Post(w.r.base+"/v1/submit?wait=1", "application/json", bytes.NewReader(submitBody(e)))
	if err != nil {
		return sr, seldel.LoadErrored
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode == http.StatusTooManyRequests {
			return sr, seldel.LoadShed
		}
		return sr, seldel.LoadErrored
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil || len(sr.Sealed) != 1 || sr.Sealed[0].Error != "" {
		return sr, seldel.LoadErrored
	}
	return sr, seldel.LoadOK
}

// get fetches one URL on the reader's connection and decodes the reply.
func (r *run) get(url string, into any) (time.Duration, error) {
	start := time.Now()
	resp, err := r.clients[0].Get(r.base + url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return 0, fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// walk reads /v1/entries pages along the cursor from the start of the
// live set to its end. Every page must ascend strictly and hold
// generated payloads. A walk is never cut short: a page costs the more
// the nearer the start of the live set its cursor is (the server sorts
// everything after the cursor; thirty milliseconds for the first page
// of read's live set, three for the last), so only whole walks compare.
func (r *run) walk() {
	cursor, last := "", seldel.Ref{}
	began, inPages := time.Now(), time.Duration(0)
	for n := 1; ; n++ {
		var page seldel.EntryPage
		on := r.tr.active()
		r.attempted.Add(1)
		d, err := r.get(fmt.Sprintf("/v1/entries?limit=%d&after=%s", pageLimit, cursor), &page)
		if err != nil {
			r.failed.Add(1)
			r.fail("page read: %v", err)
			return
		}
		r.pages.add(d)
		inPages += d
		r.pageEntries += int64(len(page.Entries))
		if on {
			r.lay.tracedPaged += int64(len(page.Entries))
		}
		for _, it := range page.Entries {
			ref := it.Ref.Ref()
			if cursor != "" || last != (seldel.Ref{}) {
				if ref.Block < last.Block || (ref.Block == last.Block && ref.Entry <= last.Entry) {
					r.fail("page out of order: %v after %v", ref, last)
					return
				}
			}
			last = ref
			if it.Entry.Kind == "data" && !bytes.HasPrefix(it.Entry.Payload, payloadMagic[:]) {
				r.fail("page entry %v holds a payload the generator did not make", ref)
				return
			}
		}
		if cursor = page.Next; cursor == "" {
			end := time.Now()
			r.walks.addOver(end, end.Sub(began), inPages/time.Duration(n))
			return
		}
	}
}

// prove asks the server for deletion proofs of up to n erased victims.
func (r *run) prove(n int) {
	r.acks.mu.Lock()
	vs := append([]*victim(nil), r.acks.erased...)
	r.acks.mu.Unlock()
	for i := 0; i < n && i < len(vs); i++ {
		v := vs[(i*7919)%len(vs)]
		var reply struct {
			Ref struct{ Block uint64 } `json:"ref"`
		}
		r.attempted.Add(1)
		d, err := r.get(fmt.Sprintf("/v1/prove-deleted?block=%d&entry=%d", v.ref.Block, v.ref.Entry), &reply)
		if err != nil || reply.Ref.Block != v.ref.Block {
			r.failed.Add(1)
			r.fail("prove-deleted %v: %v", v.ref, err)
			return
		}
		r.proofs.add(d)
	}
}

// writeProbe and readProbe are how the workloads that do not read or
// write over HTTP still report the serving metrics on their own final
// state: a short open-loop burst of submits, then whole cursor walks and
// a few deletion proofs.
func (r *run) writeProbe() {
	const requests, rate = 40, 200
	w := r.newWriter(0, 0, 1)
	if sum := w.load(rate, requests); sum.OKs != requests {
		r.fail("write probe: %d of %d requests succeeded", sum.OKs, requests)
	}
}

// readProbe walks the cursor from start to end, again and again, until
// at least 6 walks and 3 s of page reads are in (at most 60 walks), then
// asks for 8 deletion proofs.
func (r *run) readProbe() {
	const minWalks, maxWalks, span = 6, 60, 3 * time.Second
	for r.err() == nil && r.walks.n() < maxWalks && (r.walks.n() < minWalks || r.pages.sum() < float64(span)) {
		r.walk()
	}
	r.prove(8)
}

// drainErasures keeps the writer going, without new deletions, until
// every pending victim is erased.
func (r *run) drainErasures(w *httpWriter) {
	limit := time.Now().Add(tailLimit)
	w.deleteEvery = 0
	w.loop(func() bool { return r.acks.pendingCount() == 0 || time.Now().After(limit) })
	if n := r.acks.pendingCount(); n > 0 {
		r.fail("%d deletion requests not erased %v after the window", n, tailLimit)
	}
}

// driveRead: two clients, both closed loop. Connection 0 reads,
// alternating full cursor walks with deletion proofs; connection 1
// writes single entries, one request in readDeleteEvery a deletion, so
// truncations move the window under the reader.
func (r *run) driveRead() error {
	r.obs.setTruncated(r.sweepErased)
	w := r.newWriter(readDeleteEvery, 1)
	phase := func(end time.Time) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			w.loop(until(end))
		}()
		// The walk under way when the phase ends is finished, without
		// the writer beside it.
		for stop := until(end); !stop(); {
			r.walk()
			r.prove(4)
		}
		<-done
	}
	phase(time.Now().Add(warmup))
	r.pages.reset()
	r.walks.reset()
	r.proofs.reset()
	r.pageEntries = 0
	stopSamplers := r.startSamplers()
	phase(r.window())
	r.closeWindow()
	stopSamplers()
	r.drainErasures(w)
	return r.err()
}

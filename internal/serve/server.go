package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/mempool"
)

// Options parameterize a Server.
type Options struct {
	// Admission tunes load shedding; see AdmissionOptions.
	Admission AdmissionOptions
}

// Request limits.
const (
	// maxEntriesPerRequest caps one submit body's entries (413 above).
	maxEntriesPerRequest = 512
	// maxPayloadBytes caps one entry's payload (400 above).
	maxPayloadBytes = 1 << 20
	// maxBodyBytes caps a submit request body (413 above).
	maxBodyBytes = 8 << 20
	// maxPageEntries caps the /v1/entries page size a client may ask
	// for; defaultPageEntries is the page size when it asks for none.
	maxPageEntries     = 1000
	defaultPageEntries = 256
)

// ServerStats are the front-end's own counters, reported next to the
// chain and pipeline snapshots under /v1/stats.
type ServerStats struct {
	// AcceptedEntries counts entries admitted into the pipeline.
	AcceptedEntries uint64 `json:"accepted_entries"`
	// SealedEntries counts accepted entries whose receipts resolved
	// successfully.
	SealedEntries uint64 `json:"sealed_entries"`
	// RejectedEntries counts accepted entries whose receipts resolved
	// with a per-entry error.
	RejectedEntries uint64 `json:"rejected_entries"`
	// ShedRequests counts submits answered 429 by admission control.
	ShedRequests uint64 `json:"shed_requests"`
	// PendingEntries is the current accepted-but-unsealed gauge.
	PendingEntries int64 `json:"pending_entries"`
	// MaxPendingEntries is the admission budget behind PendingEntries.
	MaxPendingEntries int64 `json:"max_pending_entries"`
	// ReadPages counts /v1/entries pages served.
	ReadPages uint64 `json:"read_pages"`
	// EntriesScanned counts the entries those pages' seeks copied out of
	// the backend. A page looks one entry ahead to learn whether a next
	// page exists, so it stays within returned entries + ReadPages.
	EntriesScanned uint64 `json:"entries_scanned"`
}

// StatsResponse is the GET /v1/stats body.
type StatsResponse struct {
	Chain    chain.Stats   `json:"chain"`
	Pipeline mempool.Stats `json:"pipeline"`
	// QueueFraction is the intake fullness the admission controller
	// sheds on (Pipeline.QueueDepth / Pipeline.QueueCap).
	QueueFraction float64     `json:"queue_fraction"`
	Server        ServerStats `json:"server"`
}

// Server is the HTTP front-end over a Backend. Create with New, serve
// through HTTPServer (an h2c-enabled http.Server), and Close when done
// to stop the admission sampler.
type Server struct {
	b   Backend
	adm *admission
	mux *http.ServeMux

	sealed    atomic.Uint64
	rejected  atomic.Uint64
	accepted  atomic.Uint64
	readPages atomic.Uint64
	scanned   atomic.Uint64
}

// New builds a Server fronting b.
func New(b Backend, opts Options) *Server {
	s := &Server{b: b}
	s.adm = newAdmission(opts.Admission, b.PipelineStats().QueueCap,
		func() float64 { return b.PipelineStats().QueueFraction() })
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/submit", s.handleSubmit)
	mux.HandleFunc("GET /v1/entries", s.handleEntries)
	mux.HandleFunc("GET /v1/tombstones", s.handleTombstones)
	mux.HandleFunc("GET /v1/prove-deleted", s.handleProveDeleted)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
	s.mux = mux
	return s
}

// HTTPServer wraps the handler in an http.Server listening on addr,
// speaking HTTP/2 over cleartext TCP (h2c) next to HTTP/1.1. h2c lets a
// single load-generator connection multiplex many in-flight submits
// without head-of-line blocking, which is what an open-loop harness
// needs when responses stall.
func (s *Server) HTTPServer(addr string) *http.Server {
	p := new(http.Protocols)
	p.SetHTTP1(true)
	p.SetUnencryptedHTTP2(true)
	return &http.Server{
		Addr:              addr,
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
		Protocols:         p,
	}
}

// Close stops the admission sampler. It does not close the backend.
func (s *Server) Close() error {
	s.adm.close()
	return nil
}

// ShedCount reports submits answered 429 so far.
func (s *Server) ShedCount() uint64 { return s.adm.sheds.Load() }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// handleSubmit is the write path: decode, admit (or shed), hand the
// whole request to the mempool as one group, and either return 202
// immediately or wait out the receipts with ?wait=1.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		status := http.StatusBadRequest
		if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, "decode submit body: %v", err)
		return
	}
	if len(req.Entries) == 0 {
		writeError(w, http.StatusBadRequest, "no entries")
		return
	}
	if len(req.Entries) > maxEntriesPerRequest {
		writeError(w, http.StatusRequestEntityTooLarge, "%d entries exceeds per-request limit %d",
			len(req.Entries), maxEntriesPerRequest)
		return
	}
	entries := make([]*block.Entry, len(req.Entries))
	for i := range req.Entries {
		e, err := req.Entries[i].Entry(maxPayloadBytes)
		if err != nil {
			writeError(w, http.StatusBadRequest, "entry %d: %v", i, err)
			return
		}
		entries[i] = e
	}
	// Admission: shed BEFORE touching the pipeline. A shed request has
	// cost us JSON decoding but no intake-queue slot; the pending budget
	// and the sampled queue gauge both sit below saturation, so the
	// Submit below never blocks on a full intake.
	if !s.adm.admit(len(entries)) {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSec))
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{
			Error:         "overloaded: submission pipeline is saturated",
			RetryAfterSec: retryAfterSec,
		})
		return
	}
	receipts, err := s.b.Submit(r.Context(), entries...)
	if err != nil {
		s.adm.release(len(entries))
		if r.Context().Err() != nil {
			// Client went away mid-enqueue; nothing was submitted.
			return
		}
		writeError(w, http.StatusServiceUnavailable, "submit: %v", err)
		return
	}
	s.accepted.Add(uint64(len(entries)))
	if r.URL.Query().Get("wait") == "" {
		// Fire-and-forget: receipts resolve in the background; the
		// admission budget is released as they do.
		go s.drainReceipts(receipts)
		writeJSON(w, http.StatusAccepted, SubmitResponse{Accepted: len(entries)})
		return
	}
	resp := SubmitResponse{Accepted: len(entries), Sealed: make([]SealedJSON, len(receipts))}
	for i, rec := range receipts {
		sealed, werr := rec.Wait(r.Context())
		if werr != nil {
			if r.Context().Err() != nil {
				// Client gone; keep draining so the budget is released.
				go s.drainReceipts(receipts[i:])
				return
			}
			s.rejected.Add(1)
			s.adm.release(1)
			resp.Sealed[i] = SealedJSON{Error: werr.Error()}
			continue
		}
		s.sealed.Add(1)
		s.adm.release(1)
		resp.Sealed[i] = sealedJSON(sealed)
	}
	writeJSON(w, http.StatusOK, resp)
}

// drainReceipts releases the admission budget as background receipts
// resolve. Wait never blocks forever: every receipt resolves at seal,
// validation failure, or pipeline close.
func (s *Server) drainReceipts(receipts []mempool.Receipt) {
	for _, rec := range receipts {
		if _, err := rec.Wait(context.Background()); err != nil {
			s.rejected.Add(1)
		} else {
			s.sealed.Add(1)
		}
		s.adm.release(1)
	}
}

// parseCursor reads an "after" cursor of the form "block/entry" (the
// Ref rendering returned in EntryPage.Next). Empty means start.
func parseCursor(raw string) (block.Ref, bool, error) {
	if raw == "" {
		return block.Ref{}, false, nil
	}
	b, e, ok := strings.Cut(raw, "/")
	if !ok {
		return block.Ref{}, false, fmt.Errorf("cursor %q: want block/entry", raw)
	}
	bn, err := strconv.ParseUint(b, 10, 64)
	if err != nil {
		return block.Ref{}, false, fmt.Errorf("cursor block: %v", err)
	}
	en, err := strconv.ParseUint(e, 10, 32)
	if err != nil {
		return block.Ref{}, false, fmt.Errorf("cursor entry: %v", err)
	}
	return block.Ref{Block: bn, Entry: uint32(en)}, true, nil
}

// streamChunk is how many entries one seek of a ?stream=1 response
// copies out of the backend: the stream's memory is O(streamChunk)
// however long the live set is.
const streamChunk = 256

// seek reads the next entries after the cursor through the backend's
// ordered seek. Entries whose deletion was approved are left out: the
// chain keeps them until the next marker shift, the read path stops
// serving them at once.
func (s *Server) seek(cursor block.Ref, haveCursor bool, limit int) []chain.RefEntry {
	items := s.b.EntriesAfter(cursor, haveCursor, limit, true)
	s.scanned.Add(uint64(len(items)))
	return items
}

func entryWithRef(it chain.RefEntry) EntryWithRef {
	return EntryWithRef{Ref: refJSON(it.Ref), Entry: entryJSON(it.Entry)}
}

// handleEntries serves the read path. A page is one seek: snapshot-
// consistent (copied under one read lock of the chain) and O(log live +
// page), with the cursor contract chain.Chain.EntriesAfter describes — a
// monotone cursor never yields a duplicate and never skips an entry that
// stays live for the whole scan, even when a truncation moves the live
// window between pages. The seek asks for one entry more than the page
// holds to learn whether a next page exists. With ?stream=1 the
// remaining entries stream as NDJSON instead of one page.
func (s *Server) handleEntries(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	cursor, haveCursor, err := parseCursor(q.Get("after"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if q.Get("stream") != "" {
		s.streamEntries(w, cursor, haveCursor)
		return
	}
	limit := defaultPageEntries
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "bad limit %q", raw)
			return
		}
		limit = min(n, maxPageEntries)
	}
	page := EntryPage{CutBlocks: s.b.Stats().CutBlocks}
	items := s.seek(cursor, haveCursor, limit+1)
	if len(items) > limit {
		items = items[:limit]
		page.Next = items[limit-1].Ref.String()
	}
	// An empty page keeps its "entries":null wire form.
	if len(items) > 0 {
		page.Entries = make([]EntryWithRef, len(items))
		for i, it := range items {
			page.Entries[i] = entryWithRef(it)
		}
	}
	s.readPages.Add(1)
	writeJSON(w, http.StatusOK, page)
}

// streamEntries writes every remaining live entry as one NDJSON line,
// flushing as it goes — the restore-churn read path. It is a cursor walk
// on the server's side: repeated seeks of streamChunk entries, each
// snapshot-consistent, with the cursor contract across chunks that pages
// have across requests. The stream ends at the first short chunk, i.e.
// once it has caught up with the head.
func (s *Server) streamEntries(w http.ResponseWriter, cursor block.Ref, haveCursor bool) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	for {
		items := s.seek(cursor, haveCursor, streamChunk)
		for _, it := range items {
			if err := enc.Encode(entryWithRef(it)); err != nil {
				return // client gone
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		if len(items) < streamChunk {
			break
		}
		cursor, haveCursor = items[len(items)-1].Ref, true
	}
	s.readPages.Add(1)
}

func (s *Server) handleTombstones(w http.ResponseWriter, r *http.Request) {
	recs, err := s.b.Tombstones(r.Context())
	if err != nil {
		writeError(w, http.StatusInternalServerError, "tombstones: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"records": recs})
}

// handleProveDeleted answers with the backend's deletion proof for one
// reference.
func (s *Server) handleProveDeleted(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	bn, err1 := strconv.ParseUint(q.Get("block"), 10, 64)
	en, err2 := strconv.ParseUint(q.Get("entry"), 10, 32)
	if err1 != nil || err2 != nil {
		writeError(w, http.StatusBadRequest, "want ?block=N&entry=M")
		return
	}
	ref := block.Ref{Block: bn, Entry: uint32(en)}
	proof, err := s.b.ProveDeleted(ref)
	if err != nil {
		status := http.StatusNotFound
		if errors.Is(err, chain.ErrNotDeleted) {
			status = http.StatusConflict
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ref": refJSON(ref), "proof": proof})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	ps := s.b.PipelineStats()
	writeJSON(w, http.StatusOK, StatsResponse{
		Chain:         s.b.Stats(),
		Pipeline:      ps,
		QueueFraction: ps.QueueFraction(),
		Server: ServerStats{
			AcceptedEntries:   s.accepted.Load(),
			SealedEntries:     s.sealed.Load(),
			RejectedEntries:   s.rejected.Load(),
			ShedRequests:      s.adm.sheds.Load(),
			PendingEntries:    s.adm.pending.Load(),
			MaxPendingEntries: s.adm.maxPending,
			ReadPages:         s.readPages.Load(),
			EntriesScanned:    s.scanned.Load(),
		},
	})
}

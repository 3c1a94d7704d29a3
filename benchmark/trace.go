package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"iter"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/seldel/seldel"
)

// ival is a half-open time interval in nanoseconds since process start.
type ival struct{ start, end int64 }

func (i ival) dur() time.Duration { return time.Duration(i.end - i.start) }

// blockRec holds the layer boundaries one block crossed, keyed by block
// number: Engine.Seal, Store.PutBlock and the observer's OnAppend.
type blockRec struct {
	seal, put  ival
	appendExit int64
	summary    bool
}

type delRec struct {
	ival
	summaryBlock uint64
	tombstones   int
}

// opRec is one client operation (a Submit batch, an HTTP request, a
// cluster round): start is the call (or, open loop, the scheduled
// time), end is when every receipt resolved or the reply arrived.
type opRec struct {
	ival
	kind  string
	block uint64 // block that sealed it (0 when unknown)
	on    bool   // tracing was on when it started
	key   uint64 // backend correlation key (HTTP submits)
}

// tracer records, in memory, what crossed each layer boundary. It sees
// the system only from outside: through the decorators below, which
// wrap the interfaces the façade already exposes. A traced run
// alternates recording on and off in short slices, so one process
// yields both the per-layer numbers and their own overhead
// (trace.overhead_frac) under identical conditions.
type tracer struct {
	t0 time.Time
	on atomic.Bool

	mu      sync.Mutex
	blocks  map[uint64]*blockRec
	syncs   []ival
	dels    []delRec
	truncs  []ival // OnAppend of the marker-shifting summary → OnTruncate returned
	ops     []opRec
	backend map[uint64]ival // ServerBackend.Submit → last receipt resolved, by key
	pages   []pageRec
	lookups samples
	lastDel delRec
}

type pageRec struct {
	ival
	yielded int
}

func newTracer(t0 time.Time) *tracer {
	return &tracer{t0: t0, blocks: make(map[uint64]*blockRec), backend: make(map[uint64]ival)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// active reports whether spans are being recorded right now. A nil
// tracer (untraced run) is never active.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

func (t *tracer) block(num uint64) *blockRec {
	b := t.blocks[num]
	if b == nil {
		b = &blockRec{}
		t.blocks[num] = b
	}
	return b
}

// slice toggles recording every period until stop is closed; it ends
// with recording off.
func (t *tracer) slice(period time.Duration, stop <-chan struct{}) {
	tick := time.NewTicker(period)
	defer tick.Stop()
	t.on.Store(true)
	for {
		select {
		case <-tick.C:
			t.on.Store(!t.on.Load())
		case <-stop:
			t.on.Store(false)
			return
		}
	}
}

func (t *tracer) op(o opRec) {
	t.mu.Lock()
	t.ops = append(t.ops, o)
	t.mu.Unlock()
}

// tracedEngine times Engine.Seal: the boundary between the mempool
// (intake, linger, warm verify, build) and the chain's commit.
type tracedEngine struct {
	inner seldel.Engine
	t     *tracer
}

func (e tracedEngine) Name() string                     { return e.inner.Name() }
func (e tracedEngine) VerifySeal(b *seldel.Block) error { return e.inner.VerifySeal(b) }
func (e tracedEngine) Seal(b *seldel.Block) error {
	if !e.t.active() {
		return e.inner.Seal(b)
	}
	start := e.t.now()
	err := e.inner.Seal(b)
	end := e.t.now()
	e.t.mu.Lock()
	e.t.block(b.Header.Number).seal = ival{start, end}
	e.t.mu.Unlock()
	return err
}

// tracedStore embeds the segment store, so the optional capabilities
// the chain asserts on (Sync, Marker, DeletionRecords, DeleteBelowRecord)
// are still there.
type tracedStore struct {
	*seldel.SegmentStore
	t *tracer
}

func (s tracedStore) PutBlock(b *seldel.Block) error {
	if !s.t.active() {
		return s.SegmentStore.PutBlock(b)
	}
	start := s.t.now()
	err := s.SegmentStore.PutBlock(b)
	end := s.t.now()
	s.t.mu.Lock()
	r := s.t.block(b.Header.Number)
	r.put = ival{start, end}
	r.summary = b.IsSummary()
	s.t.mu.Unlock()
	return err
}

func (s tracedStore) Sync() error {
	start := s.t.now()
	err := s.SegmentStore.Sync()
	end := s.t.now()
	s.t.mu.Lock()
	s.t.syncs = append(s.t.syncs, ival{start, end})
	s.t.mu.Unlock()
	return err
}

func (s tracedStore) DeleteBelow(marker uint64) error {
	return s.deleteBelow(0, 0, func() error { return s.SegmentStore.DeleteBelow(marker) })
}

func (s tracedStore) DeleteBelowRecord(marker uint64, rec *seldel.ManifestRecord) error {
	return s.deleteBelow(rec.SummaryBlock, len(rec.Tombstones), func() error {
		return s.SegmentStore.DeleteBelowRecord(marker, rec)
	})
}

// deleteBelow is recorded whether or not the slice is on: truncations
// are rare, and compact.lag needs the one that just happened.
func (s tracedStore) deleteBelow(summary uint64, tombs int, do func() error) error {
	start := s.t.now()
	err := do()
	d := delRec{ival{start, s.t.now()}, summary, tombs}
	s.t.mu.Lock()
	s.t.dels = append(s.t.dels, d)
	s.t.lastDel = d
	s.t.mu.Unlock()
	return err
}

// prover is the optional proof surface of a chain or node; the server
// type-switches on it, so the decorated backend has to keep it.
type prover interface {
	ProveDeleted(ref seldel.Ref) (*seldel.DeletedProof, error)
}

// tracedBackend wraps what seldel.NewServer fronts. A submit's backend
// span runs from the Submit call until its last receipt resolved (the
// handler blocks on that receipt); a page's runs over the EntriesSeq
// iteration and counts what the handler had to scan.
type tracedBackend struct {
	seldel.ServerBackend
	p prover
	t *tracer
}

func (b tracedBackend) ProveDeleted(ref seldel.Ref) (*seldel.DeletedProof, error) {
	return b.p.ProveDeleted(ref)
}

// sigKey identifies a submit on both sides of the HTTP hop by the first
// eight bytes of its first entry's signature.
func sigKey(e *seldel.Entry) uint64 {
	if len(e.Signature) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(e.Signature)
}

func (b tracedBackend) Submit(ctx context.Context, entries ...*seldel.Entry) ([]seldel.Receipt, error) {
	if !b.t.active() || len(entries) == 0 {
		return b.ServerBackend.Submit(ctx, entries...)
	}
	start := b.t.now()
	rs, err := b.ServerBackend.Submit(ctx, entries...)
	if err != nil {
		return rs, err
	}
	key := sigKey(entries[0])
	go func() {
		<-rs[len(rs)-1].Done()
		end := b.t.now()
		b.t.mu.Lock()
		b.t.backend[key] = ival{start, end}
		b.t.mu.Unlock()
	}()
	return rs, nil
}

func (b tracedBackend) EntriesSeq() iter.Seq2[seldel.Ref, *seldel.Entry] {
	inner := b.ServerBackend.EntriesSeq()
	if !b.t.active() {
		return inner
	}
	return func(yield func(seldel.Ref, *seldel.Entry) bool) {
		start := b.t.now()
		n := 0
		inner(func(r seldel.Ref, e *seldel.Entry) bool {
			n++
			return yield(r, e)
		})
		b.t.mu.Lock()
		b.t.pages = append(b.t.pages, pageRec{ival{start, b.t.now()}, n})
		b.t.mu.Unlock()
	}
}

// span is one record of the trace file. Spans of one request share id:
// "op:<n>" for a client operation and its derived children, "block:<n>"
// for what a block crossed. Self time is a span minus what its
// children cover.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxTraceSpans bounds the trace file; a 10 s serve run stays below it.
const maxTraceSpans = 400_000

// inner is the part of an operation spent inside the system under
// test: the ServerBackend span of an HTTP request, the whole operation
// of an in-process one.
func (t *tracer) inner(o opRec) ival {
	if be, ok := t.backend[o.key]; ok && o.key != 0 {
		return be
	}
	return o.ival
}

// opPhases splits one traced operation along its blocking path:
// mempool wait (call → Engine.Seal entered), seal, chain commit (Seal
// return → PutBlock entered), store put, and resolve (PutBlock return →
// receipts resolved, which on every sequence-closing block includes the
// summary sealed with it). The phases tile inner(o). ok is false when a boundary was not recorded.
func (t *tracer) opPhases(o opRec) (wait, seal, commit, put, resolve ival, ok bool) {
	b, in := t.blocks[o.block], t.inner(o)
	if !o.on || b == nil || b.seal.start == 0 || b.put.start == 0 ||
		b.seal.start < in.start || b.put.end > in.end {
		return
	}
	return ival{in.start, b.seal.start}, b.seal, ival{b.seal.end, b.put.start}, b.put, ival{b.put.end, in.end}, true
}

// writeSpans writes the recorded spans to benchmark/out/trace-<workload>.json.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var spans []span
	add := func(name, id, parent string, i ival) {
		if i.end > i.start && len(spans) < maxTraceSpans {
			spans = append(spans, span{name, id, parent, i.start, i.end})
		}
	}
	for n, o := range t.ops {
		if !o.on {
			continue
		}
		id := "op:" + strconv.Itoa(n)
		parent := o.kind
		add(o.kind, id, "", o.ival)
		if in := t.inner(o); in != o.ival {
			add("serve.backend", id, o.kind, in)
			parent = "serve.backend"
		}
		if wait, seal, commit, put, resolve, ok := t.opPhases(o); ok {
			add("mempool.wait", id, parent, wait)
			add("engine.seal", id, parent, seal)
			add("chain.commit", id, parent, commit)
			add("store.put", id, parent, put)
			add("mempool.resolve", id, parent, resolve)
		}
	}
	nums := make([]uint64, 0, len(t.blocks))
	for n := range t.blocks {
		nums = append(nums, n)
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	for _, n := range nums {
		b, id := t.blocks[n], "block:"+strconv.FormatUint(n, 10)
		add("engine.seal", id, "", b.seal)
		add("store.put", id, "", b.put)
		if b.appendExit > b.put.end && b.put.end > 0 {
			add("chain.on_append", id, "", ival{b.put.end, b.appendExit})
		}
	}
	for _, s := range t.syncs {
		add("store.sync", "store", "", s)
	}
	for _, d := range t.dels {
		add("store.delete_below", "block:"+strconv.FormatUint(d.summaryBlock, 10), "", d.ival)
	}
	for _, c := range t.truncs {
		add("compact.truncate", "compact", "", c)
	}
	for _, p := range t.pages {
		add("serve.entries_seq", "page", "", p.ival)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"unit": "ns since process start", "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

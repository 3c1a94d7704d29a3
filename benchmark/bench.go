package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/seldel/seldel"
)

// Chain geometry, the same on every workload. ShrinkMinimal cuts one
// sequence per summary, so carried entries move in eight interleaved
// lanes and the live set stays level; the default policy merges eight
// sequences at once and the live set swings between R and 1.7 R.
const (
	sequenceLength = 8
	maxSequences   = 8
)

// settings are one workload's fixed parameters. They are part of the
// benchmark's definition: changing any of them starts a new baseline.
type settings struct {
	// live is R, the number of unexpired entries the TTL keeps live.
	live int
	// preErased is how many victims set-up erases before the window.
	preErased int
	// limit is the latency a client write operation should meet;
	// write_within_limit is the share that did. It sits near the 93rd
	// percentile of the workload's scaled latencies: high enough that the
	// share repeats, low enough that it never reads exactly 1 and that a
	// tail that grows shows.
	limit time.Duration
	// poolRate is how many entries are pre-signed per second of load.
	// It must stay above what the system can take: a run that uses the
	// pool up fails.
	poolRate int
	drive    func(r *run) error
}

var workloads = map[string]settings{
	"erasure": {live: 20000, limit: 20 * time.Millisecond, poolRate: 24000, drive: (*run).driveErasure},
	"read":    {live: 30000, limit: 30 * time.Millisecond, preErased: 1500, poolRate: 1000, drive: (*run).driveRead},
	"cluster": {live: 5000, limit: 10 * time.Millisecond, poolRate: 6000, drive: (*run).driveCluster},
}

// readDeleteEvery-th request of read's writer is a deletion. Victims
// wait anything between one summary and eight for their sequence to be
// cut, so the median of that wide distribution needs several hundred
// erase samples a window to repeat.
const readDeleteEvery = 3

// warmup is how long every workload runs its own load between set-up
// and the timed window.
const warmup = time.Second

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	dir      string // the benchmark's own directory
	// plant makes the run write one erased victim's payload into the
	// store directory before the erased-bytes scan (smoke test only).
	plant bool
}

// run is one process's state: one workload, one seed.
type run struct {
	opt   options
	set   settings
	start time.Time
	ctx   context.Context

	gen   *generator
	clock *offeredClock
	reg   *seldel.Registry
	ver   *seldel.Verifier
	pool  *pool
	nextK atomic.Int64
	acks  *ackBook

	root  string // scratch directory of this run
	dir   string // node 0's (or the only) store directory below it
	seg   *seldel.SegmentStore
	chain *seldel.Chain // single-chain workloads; cluster: node 0's chain
	cl    *cluster
	obs   *observer
	tr    *tracer

	srv     *seldel.Server
	hs      *http.Server
	base    string
	clients [2]*http.Client

	// window bounds and what was measured inside them
	winStart, winEnd time.Time
	// set-up as the end-to-end metric counts it: inputs signed (the
	// generator's work) to store, chain, preload and server ready.
	inputsReady, setupDone time.Time
	ackMu                  sync.Mutex
	ackedBySecond          []int64    // data entries acknowledged in each whole second of the window
	writes                 samples    // client write operations
	writesOnOff            [2]samples // traced run: started with recording off / on
	marks                  samples    // deletion batches (SubmitWait)
	erases                 samples    // valid request → physically erased
	eraseBlocks            samples    // blocks sealed in between (counts, not durations)
	pages                  samples    // every page read
	walks                  samples    // mean page time of every complete cursor walk
	pageEntries            int64
	proofs                 samples // GET /v1/prove-deleted
	late                   samples // open-loop generator lateness
	attempted              atomic.Int64
	failed                 atomic.Int64
	writeFailures          atomic.Int64 // write operations inside the window that got no acknowledgement
	delRequests            atomic.Int64
	delInvalid             atomic.Int64
	delRejected            atomic.Int64

	meter *meter

	failMu  sync.Mutex
	failure error
	lay     layerCounters
}

// fail records the first correctness failure; a run with one prints no metrics.
func (r *run) fail(format string, args ...any) {
	r.failMu.Lock()
	if r.failure == nil {
		r.failure = fmt.Errorf(format, args...)
	}
	r.failMu.Unlock()
}

func (r *run) err() error {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	return r.failure
}

// offeredClock is the chain's logical clock: it reads the number of
// entries the generator has offered so far. Entry k carries the
// deadline k+R+1, so exactly the last R offered entries are unexpired
// however the pipeline packs them into blocks.
type offeredClock struct{ n atomic.Uint64 }

func (c *offeredClock) Now() uint64  { return c.n.Load() + 1 }
func (c *offeredClock) Tick() uint64 { return c.n.Load() + 1 }

func (c *offeredClock) advance(to int) {
	for {
		cur := c.n.Load()
		if uint64(to) <= cur || c.n.CompareAndSwap(cur, uint64(to)) {
			return
		}
	}
}

func (c *offeredClock) offered() int { return int(c.n.Load()) }

// takeK reserves the next n pre-signed entries and marks them offered.
// ok is false once the pool is used up.
func (r *run) takeK(n int) (k0 int, ok bool) {
	k0 = int(r.nextK.Add(int64(n))) - n
	if k0+n > r.pool.n {
		return 0, false
	}
	r.clock.advance(k0 + n)
	return k0, true
}

func (r *run) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(r.opt.seed^0x9E3779B97F4A7C15, stream))
}

// chainOptions are the options every chain of the run is opened with,
// at first open and at every reopen.
func (r *run) chainOptions(store seldel.Store, ver *seldel.Verifier, observe bool) []seldel.Option {
	opts := []seldel.Option{
		seldel.WithSequenceLength(sequenceLength),
		seldel.WithMaxSequences(maxSequences),
		seldel.WithShrink(seldel.ShrinkMinimal),
		seldel.WithClock(r.clock),
		seldel.WithVerifier(ver),
		seldel.WithStore(store),
	}
	if observe {
		opts = append(opts, seldel.WithListener(r.obs))
		if r.tr != nil {
			opts = append(opts, seldel.WithEngine(tracedEngine{seldel.NoOpEngine{}, r.tr}))
		}
	}
	return opts
}

// store returns the store the system under test writes through: the
// segment store itself, or its tracing decorator.
func (r *run) store() seldel.Store {
	if r.tr != nil {
		return tracedStore{r.seg, r.tr}
	}
	return r.seg
}

// prepare does the set-up every workload shares: inputs, a fresh store
// directory, the chain (or cluster), preload to steady state, the HTTP
// front-end.
func (r *run) prepare() error {
	r.gen = newGenerator(r.opt.seed, r.set.live)
	r.clock = &offeredClock{}
	r.ver = seldel.NewVerifier(0, 0)
	if r.opt.trace {
		r.tr = newTracer(r.start)
	}
	r.obs = newObserver(r.tr)

	work := filepath.Join(r.opt.dir, ".work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	var err error
	if r.root, err = os.MkdirTemp(work, r.opt.workload+"-"); err != nil {
		return err
	}
	r.dir = filepath.Join(r.root, "store")

	preload := r.set.live + r.set.live/4
	span := float64(r.opt.seconds) + warmup.Seconds() + 2 // window, warm-up, tail and probe
	n := preload + int(float64(r.set.poolRate)*span)
	r.pool = r.gen.sign(n)
	r.inputsReady = time.Now()
	r.acks = newAckBook(n)

	if r.seg, err = seldel.NewSegmentStore(r.dir, seldel.SegmentOptions{}); err != nil {
		return err
	}
	if r.opt.workload == "cluster" {
		if err := r.startCluster(); err != nil {
			return err
		}
	} else {
		if r.reg, err = r.gen.registry(); err != nil {
			return err
		}
		if r.chain, err = seldel.New(r.reg, r.chainOptions(r.store(), r.ver, true)...); err != nil {
			return err
		}
	}
	if err := r.preload(preload); err != nil {
		return err
	}
	if err := r.startServer(); err != nil {
		return err
	}
	r.setupDone = time.Now()
	return nil
}

// startServer puts the in-process HTTP front-end on a loopback port and
// opens the two h2c client connections every workload uses.
func (r *run) startServer() error {
	var backend seldel.ServerBackend = r.chain
	var p prover = r.chain
	if r.cl != nil {
		backend, p = r.cl.nodes[0], r.cl.nodes[0]
	}
	if r.tr != nil {
		backend = tracedBackend{backend, p, r.tr}
	}
	r.srv = seldel.NewServer(backend, seldel.ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.hs = r.srv.HTTPServer(ln.Addr().String())
	go func() {
		if err := r.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			r.fail("http server: %v", err)
		}
	}()
	r.base = "http://" + ln.Addr().String()
	for i := range r.clients {
		proto := new(http.Protocols)
		proto.SetUnencryptedHTTP2(true)
		r.clients[i] = &http.Client{Transport: &http.Transport{Protocols: proto}}
	}
	return nil
}

func (r *run) stopServer() {
	if r.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.hs.Shutdown(ctx); err != nil {
		r.hs.Close()
	}
	for _, c := range r.clients {
		c.CloseIdleConnections()
	}
	r.srv.Close()
	r.hs = nil
}

// submitter is the write surface preload and the chain drivers share:
// the chain itself, or the cluster's leader.
func (r *run) submitter() interface {
	Submit(ctx context.Context, entries ...*seldel.Entry) ([]seldel.Receipt, error)
} {
	if r.cl != nil {
		return r.cl.nodes[0]
	}
	return r.chain
}

// gone reports whether ref no longer resolves anywhere it could.
func (r *run) gone(ref seldel.Ref) bool {
	if r.cl != nil {
		return r.cl.goneEverywhere(ref)
	}
	_, _, ok := r.chain.Lookup(ref)
	return !ok
}

// sweepErased times every pending victim that is now physically gone.
// It is the observer's OnTruncate hook on single-chain workloads.
func (r *run) sweepErased() {
	now := time.Now()
	head := r.obs.head.Load()
	for _, v := range r.acks.sweep(r.gone) {
		r.acks.mu.Lock()
		r.acks.ids[payloadID(r.pool.payload(v.k))] = true
		r.acks.mu.Unlock()
		if !v.submitAt.IsZero() && !v.submitAt.Before(r.winStart) {
			r.erases.addAt(now, now.Sub(v.submitAt))
			r.eraseBlocks.addValue(float64(head - v.reqBlock))
		}
	}
}

// inWindow reports whether an operation that started at t counts.
func (r *run) inWindow(t time.Time) bool { return !t.Before(r.winStart) && t.Before(r.winEnd) }

// ackInWindow counts n data entries acknowledged at end towards the
// window's throughput.
func (r *run) ackInWindow(n int, end time.Time) {
	if end.Before(r.winStart) || !end.Before(r.winEnd) {
		return
	}
	sec := int(end.Sub(r.winStart) / time.Second)
	r.ackMu.Lock()
	for len(r.ackedBySecond) <= sec {
		r.ackedBySecond = append(r.ackedBySecond, 0)
	}
	r.ackedBySecond[sec] += int64(n)
	r.ackMu.Unlock()
}

// entriesPerSecond is the window's throughput: the median over its
// whole seconds of the data entries acknowledged in each, multiplied by
// the machine's slowness during that second (every workload's writers
// are closed loops). A mean would carry every stall of a shared machine
// straight into the result.
func (r *run) entriesPerSecond(m *meter) float64 {
	r.ackMu.Lock()
	defer r.ackMu.Unlock()
	v := make([]float64, len(r.ackedBySecond))
	for i, n := range r.ackedBySecond {
		from := r.winStart.Add(time.Duration(i) * time.Second)
		v[i] = float64(n) * m.slowness(from, from.Add(time.Second))
	}
	return median(v)
}

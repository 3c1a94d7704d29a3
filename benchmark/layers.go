package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/seldel/seldel"
)

// snapshot is the public counters of every layer at one instant; the
// window's share is the difference of two.
type snapshot struct {
	verify    seldel.VerifyStats
	pipe      seldel.PipelineStats
	chain     seldel.Stats
	fsyncs    uint64
	ioBytes   uint64
	cpuSteal  uint64 // /proc/stat ticks the hypervisor gave to somebody else
	cpuTotal  uint64
	blocks    uint64
	summaries uint64
	carried   uint64
	sheds     uint64
	netSent   uint64
	netBytes  uint64
	netDrops  uint64
	virtual   time.Duration
	chunks    uint64
}

// layerCounters holds the window's two snapshots and what the samplers saw.
type layerCounters struct {
	begin, end   snapshot
	queueFracMax float64
	pendingMax   int
	tracedPaged  int64 // entries returned by pages read while recording was on
}

func (r *run) snapshot() snapshot {
	s := snapshot{
		verify:    r.ver.Stats(),
		chain:     r.chain.Stats(),
		fsyncs:    r.seg.FsyncCount(),
		ioBytes:   procIOWriteBytes(),
		blocks:    r.obs.blocks.Load(),
		summaries: r.obs.summaries.Load(),
		carried:   r.obs.carried.Load(),
	}
	s.cpuSteal, s.cpuTotal = procStatCPU()
	if r.srv != nil {
		s.sheds = r.srv.ShedCount()
	}
	if r.cl != nil {
		s.pipe = r.cl.nodes[0].PipelineStats()
		ns := r.cl.net.Stats()
		s.netSent, s.netBytes, s.netDrops = ns.Sent, ns.Bytes, ns.Dropped
		s.virtual = r.cl.net.Now()
		for i, n := range r.cl.nodes {
			if r.cl.live[i] {
				s.chunks += n.SyncStats().ChunksSent
			}
		}
	} else {
		s.pipe = r.chain.PipelineStats()
	}
	return s
}

func (r *run) closeWindow() {
	r.lay.end = r.snapshot()
}

// procIOWriteBytes reads write_bytes from /proc/self/io: bytes this
// process caused to be sent to the storage layer. 0 where unavailable.
func procIOWriteBytes() uint64 {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "write_bytes: "); ok {
			n, _ := strconv.ParseUint(v, 10, 64)
			return n
		}
	}
	return 0
}

// procStatCPU reads the machine's stolen and total processor ticks from
// the first line of /proc/stat; zeros where unavailable.
func procStatCPU() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line) {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil || i > 8 {
			continue // the "cpu" label; guest ticks are already in user
		}
		total += n
		if i == 8 {
			steal = n
		}
	}
	return steal, total
}

// stealFrac is the share of the window's processor time that the
// hypervisor gave to other guests while this one wanted it.
func (r *run) stealFrac() float64 {
	b, e := r.lay.begin, r.lay.end
	return ratio(float64(e.cpuSteal-b.cpuSteal), float64(e.cpuTotal-b.cpuTotal))
}

// startSamplers opens the window's counters and, on a traced run,
// starts the recording slices and the two samplers: backpressure gauges
// every 5 ms, one Lookup of a random acknowledged reference every ms.
func (r *run) startSamplers() (stop func()) {
	r.lay.begin = r.snapshot()
	if r.tr == nil {
		return func() {}
	}
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		r.tr.slice(250*time.Millisecond, quit)
	}()
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				var ps seldel.PipelineStats
				if r.cl != nil {
					ps = r.cl.nodes[0].PipelineStats()
				} else {
					ps = r.chain.PipelineStats()
				}
				if f := ps.QueueFraction(); f > r.lay.queueFracMax {
					r.lay.queueFracMax = f
				}
				if ps.Compaction.Pending > r.lay.pendingMax {
					r.lay.pendingMax = ps.Compaction.Pending
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		rng := r.rng(5)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				offered := r.clock.offered()
				if offered == 0 {
					continue
				}
				k := rng.IntN(offered)
				r.acks.mu.Lock()
				ref, st := r.acks.refs[k], r.acks.state[k]
				r.acks.mu.Unlock()
				if st == stateNone {
					continue
				}
				t := time.Now()
				r.chain.Lookup(ref)
				r.tr.lookups.add(time.Since(t))
			}
		}
	}()
	return func() { close(quit); wg.Wait() }
}

// layerProbes are the direct single-layer measurements of a traced
// run, made on the closed store: Store.Stream and Verifier.Entries.
func (r *run) layerProbes(es *endState) error {
	s, err := seldel.NewSegmentStore(r.dir, seldel.SegmentOptions{})
	if err != nil {
		return err
	}
	t := time.Now()
	for _, err := range s.Stream() {
		if err != nil {
			s.Close()
			return err
		}
	}
	es.streamMs = ms(time.Since(t))
	if err := s.Close(); err != nil {
		return err
	}
	const sigs = 4096
	ver := seldel.NewVerifier(1, -1)
	defer ver.Close()
	t = time.Now()
	if err := ver.Entries(r.reg, r.pool.entries(0, sigs)); err != nil {
		return err
	}
	es.sigUs = us(time.Since(t)) / sigs
	return nil
}

// layerMetrics computes every per-layer metric of a traced run.
func (r *run) layerMetrics(es *endState) map[string]metric {
	t, b, e := r.tr, r.lay.begin, r.lay.end
	t.mu.Lock()
	defer t.mu.Unlock()
	// Per operation: the phases of its blocking path, and for an HTTP
	// request what lies outside the ServerBackend span.
	var wait, resolve, backend, httpSelf samples
	type whole struct{ total, parts time.Duration }
	var ops []whole
	for _, o := range t.ops {
		w, s, c, p, rs, ok := t.opPhases(o)
		if !ok {
			continue
		}
		wait.add(w.dur())
		resolve.add(time.Duration(rs.end - p.end))
		in := t.inner(o)
		if in != o.ival {
			backend.add(in.dur())
			httpSelf.add(o.dur() - in.dur())
		}
		ops = append(ops, whole{o.dur(), w.dur() + s.dur() + c.dur() + p.dur() + rs.dur() + o.dur() - in.dur()})
	}
	// Attribution closes when, for the operations around the median
	// (40th to 60th percentile by latency), the self times of the spans
	// on the blocking path add up to the operations' own time.
	sort.Slice(ops, func(i, j int) bool { return ops[i].total < ops[j].total })
	var bandTotal, bandParts time.Duration
	for _, o := range ops[len(ops)*2/5 : max(len(ops)*3/5, min(1, len(ops)))] {
		bandTotal += o.total
		bandParts += o.parts
	}
	var seal, commit, put, summary samples
	for n, blk := range t.blocks {
		if blk.seal.start > 0 {
			seal.add(blk.seal.dur())
			if blk.put.start > 0 {
				commit.add(time.Duration(blk.put.start - blk.seal.end))
			}
		}
		if blk.put.start > 0 {
			put.add(blk.put.dur())
			if prev := t.blocks[n-1]; blk.summary && prev != nil && prev.appendExit > 0 {
				summary.add(time.Duration(blk.put.start - prev.appendExit))
			}
		}
	}
	var syncs, dels, lag, build samples
	syncs.add(es.finalSync)
	for _, s := range t.syncs {
		syncs.add(s.dur())
	}
	for _, d := range t.dels {
		dels.add(d.dur())
	}
	for _, c := range t.truncs {
		lag.add(c.dur())
	}
	var scanned int64
	for _, p := range t.pages {
		build.add(p.dur())
		scanned += int64(p.yielded)
	}

	blocks := float64(e.blocks - b.blocks)
	sealed := float64(e.pipe.Entries - b.pipe.Entries)
	verified := float64(e.verify.Verified - b.verify.Verified)
	hits := float64(e.verify.CacheHits - b.verify.CacheHits)
	misses := float64(e.verify.CacheMisses - b.verify.CacheMisses)
	appended := sealed * float64(len(r.pool.entry(0).Encode()))

	m := map[string]metric{
		"mempool.wait_us_p50":       {wait.us(0.5), "us"},
		"mempool.wait_us_p99":       {wait.us(0.99), "us"},
		"mempool.entries_per_block": {ratio(sealed, float64(e.pipe.Batches-b.pipe.Batches)), "count"},
		"mempool.resolve_us_p50":    {resolve.us(0.5), "us"},
		"mempool.queue_frac_max":    {r.lay.queueFracMax, "ratio"},
		"mempool.rejected":          {float64(e.pipe.Rejected - b.pipe.Rejected), "count"},

		"verify.sigs_per_entry": {ratio(verified, sealed), "ratio"},
		"verify.cache_hit_frac": {ratio(hits, hits+misses), "ratio"},
		"verify.batched_frac":   {ratio(float64(e.verify.Batched-b.verify.Batched), verified), "ratio"},
		"verify.sig_us":         {es.sigUs, "us"},

		"consensus.seal_us_p50": {seal.us(0.5), "us"},

		"chain.append_us_p50":        {commit.us(0.5), "us"},
		"chain.append_us_p99":        {commit.us(0.99), "us"},
		"chain.summary_us_p50":       {summary.us(0.5), "us"},
		"chain.summary_us_p99":       {summary.us(0.99), "us"},
		"chain.carried_per_summary":  {ratio(float64(e.carried-b.carried), float64(e.summaries-b.summaries)), "count"},
		"chain.entries_seq_us_per_k": {es.seqUsPerK, "us"},
		"chain.lookup_us_p99":        {t.lookups.us(0.99), "us"},
		"chain.prove_us_p50":         {es.proveUs.us(0.5), "us"},
		"chain.restore_ms":           {es.reopen.ms(0.5) - median(es.storeOpen), "ms"},
		"chain.live_entries":         {float64(es.stats.LiveEntries), "count"},
		"chain.live_blocks":          {float64(es.stats.LiveBlocks), "count"},

		"deletion.mark_us_p50":         {r.marks.us(0.5), "us"},
		"deletion.erase_ms_p99":        {r.erases.ms(0.99), "ms"},
		"deletion.blocks_to_erase_p50": {r.eraseBlocks.q(0.5), "count"},
		"deletion.blocks_to_erase_p99": {r.eraseBlocks.q(0.99), "count"},
		"deletion.rejected_frac":       {ratio(float64(r.delRejected.Load()), float64(r.delRequests.Load())), "ratio"},

		"compact.lag_ms_p50":  {lag.ms(0.5), "ms"},
		"compact.lag_ms_p99":  {lag.ms(0.99), "ms"},
		"compact.pending_max": {float64(r.lay.pendingMax), "count"},

		"manifest.records":             {float64(es.records), "count"},
		"manifest.tombstones":          {float64(es.tombstones), "count"},
		"manifest.bytes_per_tombstone": {ratio(float64(es.delBytes), float64(es.tombstones)), "B"},

		"store.put_us_p50":          {put.us(0.5), "us"},
		"store.put_us_p99":          {put.us(0.99), "us"},
		"store.sync_us_p50":         {syncs.us(0.5), "us"},
		"store.fsyncs_per_block":    {ratio(float64(e.fsyncs-b.fsyncs), blocks), "ratio"},
		"store.delete_below_us_p50": {dels.us(0.5), "us"},
		"store.delete_below_us_p99": {dels.us(0.99), "us"},
		"store.write_amp":           {ratio(float64(e.ioBytes-b.ioBytes), appended), "ratio"},
		"store.size_bytes":          {float64(es.dirBytes), "B"},
		"store.segments":            {float64(es.segments), "count"},
		"store.open_ms":             {median(es.storeOpen), "ms"},
		"store.stream_ms":           {es.streamMs, "ms"},

		"serve.http_us_p50":                  {httpSelf.us(0.5), "us"},
		"serve.http_us_p99":                  {httpSelf.us(0.99), "us"},
		"serve.backend_us_p50":               {backend.us(0.5), "us"},
		"serve.backend_us_p99":               {backend.us(0.99), "us"},
		"serve.page_build_us_p50":            {build.us(0.5), "us"},
		"serve.page_us_p99":                  {r.pages.us(0.99), "us"},
		"serve.prove_us_p50":                 {r.proofs.us(0.5), "us"},
		"serve.entries_scanned_per_returned": {ratio(float64(scanned), float64(r.lay.tracedPaged)), "ratio"},
		"serve.shed_frac":                    {ratio(float64(e.sheds-b.sheds), float64(r.writes.n())), "ratio"},

		"serve.scan_entries_s": {ratio(float64(r.pageEntries), r.pages.sum()/1e9), "entries/s"},
		"machine.verify_us":    {r.meter.verifyNs(r.winStart, r.winEnd) / 1e3, "us"},
		"machine.steal_frac":   {r.stealFrac(), "ratio"},
		"loadgen.late_us_p99":  {r.late.us(0.99), "us"},
		"client.write_us_p50":  {r.writes.us(0.5), "us"},
		"client.write_us_p99":  {r.writes.us(0.99), "us"},

		"node.msgs_per_block":         {ratio(float64(e.netSent-b.netSent), blocks), "count"},
		"node.bytes_per_block":        {ratio(float64(e.netBytes-b.netBytes), blocks), "B"},
		"node.sigs_per_block":         {ratio(verified, blocks), "count"},
		"netsim.dropped":              {float64(e.netDrops - b.netDrops), "count"},
		"netsim.virtual_ms_per_block": {ratio(ms(e.virtual-b.virtual), blocks), "vms"},
		"node.submit_share":           {0, "ratio"},
		"node.catchup_rounds":         {0, "rounds"},
		"node.sync_chunks":            {0, "count"},
		"doctor.check_ms":             {es.doctorMs, "ms"},
		"trace.overhead_frac":         {ratio(r.writesOnOff[1].q(0.5)-r.writesOnOff[0].q(0.5), r.writesOnOff[0].q(0.5)), "ratio"},
		"trace.attributed_frac":       {ratio(float64(bandParts), float64(bandTotal)), "ratio"},
	}
	if c := r.cl; c != nil {
		m["node.submit_share"] = metric{ratio(c.submits.q(0.5), c.submits.q(0.5)+c.flushes.q(0.5)), "ratio"}
		m["node.catchup_rounds"] = metric{float64(c.catchupRounds), "rounds"}
		m["node.sync_chunks"] = metric{float64(e.chunks - c.syncBefore), "count"}
	}
	return m
}

package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"github.com/seldel/seldel"
)

// The store is reopened at least minReopens times and until the cycles
// have taken reopenSpan together (at most maxReopens): a small store
// reopens in 0.2 s, and so short a sample would mostly measure whatever
// else the machine was doing in that instant. reopen_ms is the median
// cycle.
const (
	minReopens = 5
	maxReopens = 12
	reopenSpan = 2 * time.Second
)

// endState is what the run measures once the load has stopped.
type endState struct {
	stats      seldel.Stats
	dirBytes   int64
	segments   int
	head       seldel.Hash
	reopen     samples   // one per cycle
	storeOpen  []float64 // ms
	streamMs   float64
	doctorMs   float64
	seqUsPerK  float64
	proveUs    samples
	finalSync  time.Duration
	records    int
	tombstones int
	delBytes   int64
	sigUs      float64
}

// finish runs the closing probe, every correctness check, and the
// measurements that need a quiet or closed store. Any failed check
// fails the run.
func (r *run) finish() (*endState, error) {
	es := &endState{}
	switch r.opt.workload {
	case "read":
	case "cluster":
		stop := r.cl.flusher()
		r.writeProbe()
		stop()
		r.sweepErased()
		r.readProbe()
	default:
		r.writeProbe()
		r.readProbe()
	}
	r.stopServer()
	if err := r.err(); err != nil {
		return nil, err
	}

	// Quiet state: every truncation compacted, the store pruned.
	chains := []*seldel.Chain{r.chain}
	if r.cl != nil {
		chains = chains[:0]
		for i, n := range r.cl.nodes {
			if r.cl.live[i] {
				chains = append(chains, n.Chain())
			}
		}
	}
	for _, c := range chains {
		if err := c.CompactWait(r.ctx); err != nil {
			return nil, err
		}
		if err := c.VerifyIntegrity(); err != nil {
			return nil, fmt.Errorf("VerifyIntegrity: %w", err)
		}
	}
	r.sweepErased()
	es.stats = r.chain.Stats()
	t := time.Now()
	if err := r.store().(interface{ Sync() error }).Sync(); err != nil {
		return nil, err
	}
	es.finalSync = time.Since(t)
	var err error
	if es.dirBytes, err = dirBytes(r.dir); err != nil {
		return nil, err
	}
	if es.segments, err = r.seg.SegmentCount(); err != nil {
		return nil, err
	}
	if fi, err := os.Stat(filepath.Join(r.dir, "DELETIONS")); err == nil {
		es.delBytes = fi.Size()
	}

	t = time.Now()
	n := 0
	for range r.chain.EntriesSeq() {
		n++
	}
	es.seqUsPerK = ratio(float64(time.Since(t))/1e3, float64(n)/1e3)

	if err := r.account(chains, es); err != nil {
		return nil, err
	}
	if r.cl != nil {
		if err := r.cl.agree(); err != nil {
			return nil, err
		}
	}

	es.head = r.chain.HeadHash()
	if r.cl != nil {
		err = r.cl.close()
	} else {
		err = r.chain.Close()
	}
	if err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	if err := r.seg.Close(); err != nil {
		return nil, fmt.Errorf("close store: %w", err)
	}
	r.ver.Close()

	if r.opt.plant {
		if err := r.plantVictim(); err != nil {
			return nil, err
		}
	}
	if err := r.scanErased(); err != nil {
		return nil, err
	}
	t = time.Now()
	rep, err := seldel.Doctor(r.dir, seldel.DoctorOptions{})
	if err != nil {
		return nil, fmt.Errorf("doctor: %w", err)
	}
	es.doctorMs = ms(time.Since(t))
	if !rep.Clean() {
		var b bytes.Buffer
		rep.Write(&b)
		return nil, fmt.Errorf("doctor reports drift:\n%s", b.String())
	}
	for t := time.Now(); es.reopen.n() < minReopens || (es.reopen.n() < maxReopens && time.Since(t) < reopenSpan); {
		if err := r.reopen(es); err != nil {
			return nil, err
		}
	}
	if r.opt.trace {
		if err := r.layerProbes(es); err != nil {
			return nil, err
		}
	}
	return es, nil
}

// account checks every acknowledged reference: it is live, or its TTL
// ran out, or it was erased on request and a deletion proof verifies
// standalone. On the cluster this holds on every live node.
func (r *run) account(chains []*seldel.Chain, es *endState) error {
	a := r.acks
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.pending) > 0 {
		return fmt.Errorf("%d approved deletion requests never erased", len(a.pending))
	}
	offered := r.clock.offered()
	erased := make(map[int]bool, len(a.erased))
	for _, v := range a.erased {
		erased[v.k] = true
	}
	for k, st := range a.state {
		if st == stateNone || st == stateUnknown || erased[k] {
			continue
		}
		if st == stateVictim {
			return fmt.Errorf("entry %d: deletion requested, neither erased nor rejected", k)
		}
		if k+r.set.live <= offered {
			continue // TTL ran out; the chain may drop it at any summary
		}
		for _, c := range chains {
			if _, _, ok := c.Lookup(a.refs[k]); !ok {
				return fmt.Errorf("acknowledged entry %d (%v) is neither live, expired nor erased", k, a.refs[k])
			}
		}
	}
	for i, v := range a.erased {
		for _, c := range chains {
			if _, _, ok := c.Lookup(v.ref); ok {
				return fmt.Errorf("erased victim %v resolves again", v.ref)
			}
		}
		if i%max(1, len(a.erased)/256) != 0 {
			continue // proofs for a spread sample of 256 victims
		}
		t := time.Now()
		proof, err := r.chain.ProveDeleted(v.ref)
		if err == nil {
			err = proof.Verify()
		}
		if err != nil {
			return fmt.Errorf("deletion proof for %v: %w", v.ref, err)
		}
		es.proveUs.add(time.Since(t))
	}
	recs, err := r.chain.Tombstones(r.ctx)
	if err != nil {
		return err
	}
	es.records = len(recs)
	for _, rec := range recs {
		es.tombstones += len(rec.Tombstones)
	}
	if es.tombstones < len(a.erased) || es.tombstones > len(a.erased)+a.unknown {
		return fmt.Errorf("manifest holds %d tombstones, %d victims were erased (%d requests lost their reply)",
			es.tombstones, len(a.erased), a.unknown)
	}
	if rej, inv := r.delRejected.Load(), r.delInvalid.Load(); a.unknown == 0 && (rej != inv || int64(r.chain.Stats().RejectedRequests) != inv) {
		return fmt.Errorf("%d invalid requests injected, %d came back rejected, chain counts %d",
			inv, rej, r.chain.Stats().RejectedRequests)
	}
	return nil
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err == nil {
			total += fi.Size()
		}
		return err
	})
	return total, err
}

// plantVictim writes one erased victim's payload into the store
// directory: the smoke test's proof that the scan below can fail.
func (r *run) plantVictim() error {
	if len(r.acks.erased) == 0 {
		return fmt.Errorf("plant: no victim was erased")
	}
	return os.WriteFile(filepath.Join(r.dir, "planted"), r.pool.payload(r.acks.erased[0].k), 0o644)
}

// scanErased reads every file of the closed store directory and fails
// if the payload of any erased victim is still in it.
func (r *run) scanErased() error {
	return filepath.WalkDir(r.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for off := 0; ; {
			i := bytes.Index(data[off:], payloadMagic[:])
			if i < 0 || off+i+12 > len(data) {
				return nil
			}
			off += i
			if r.acks.ids[payloadID(data[off:])] {
				return fmt.Errorf("erased payload %x still on disk in %s at offset %d", data[off+4:off+12], path, off)
			}
			off += len(payloadMagic)
		}
	})
}

// reopen opens the populated directory the way a restarting replica
// does (cold verify cache) and checks that the head survived.
func (r *run) reopen(es *endState) error {
	ver := seldel.NewVerifier(0, 0)
	defer ver.Close()
	t0 := time.Now()
	s, err := seldel.NewSegmentStore(r.dir, seldel.SegmentOptions{})
	if err != nil {
		return fmt.Errorf("reopen store: %w", err)
	}
	t1 := time.Now()
	c, err := seldel.New(r.reg, r.chainOptions(s, ver, false)...)
	if err != nil {
		s.Close()
		return fmt.Errorf("reopen chain: %w", err)
	}
	t2 := time.Now()
	es.storeOpen = append(es.storeOpen, ms(t1.Sub(t0)))
	es.reopen.addAt(t2, t2.Sub(t0))
	head := c.HeadHash()
	if err := c.Close(); err != nil {
		return err
	}
	if err := s.Close(); err != nil {
		return err
	}
	if head != es.head {
		return fmt.Errorf("reopened head %s differs from closed head %s", head, es.head)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

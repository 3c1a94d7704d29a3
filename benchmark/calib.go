package main

import (
	"crypto/ed25519"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The sandbox this benchmark runs in shares its processor cores with
// neighbours. Their load comes in bursts of one to five seconds and in
// phases of minutes, and while it lasts the same instructions take up to
// twice as long: the same binary on the same inputs appended 15 000
// entries a second in one run and 9 700 in the next, with no time stolen
// and the processor equally busy. No window the driver's time budget
// allows averages that away. So the run measures the machine as well. A
// meter thread does, twenty times a second for the whole run, a fixed
// piece of work that has nothing to do with the system under test
// (Ed25519 verifications by the standard library: arithmetic, like most
// of what the chain spends its time on) and reads how much processor
// time of its own thread that took, so that waiting for a core does not
// count, only how fast the core was. Every duration the benchmark
// reports is divided by the machine's slowness while it was measured,
// and every rate multiplied by it. A change to the system under test
// does not move the meter, so it shows in the scaled metric exactly as
// in the raw one; the raw values and the meter's reading are in the
// result file and in machine.verify_us.
//
// The chain does not slow down quite as much as pure arithmetic does:
// part of its time it waits for memory, which the neighbours slow less.
// Over ninety runs of the same code, in hours when a verification cost
// anything between 54 and 100 µs, the logarithm of every timing rose by
// 0.75 to 1.0 of the logarithm of the verification's cost over the same
// span (0.76 for cluster's rounds, 0.88 for erasure's appends, 1.0 for
// reopening). So the slowness is the verification's relative cost to the
// power of meterShare, one number for every metric: with 0.85 each
// metric's residual spread is within a fifth of what its own best
// exponent leaves, and with 1 an hour in which verifications cost 85 µs
// made cluster's rounds look 15 % faster than a quiet one.
//
// The same thread reads the process's resident set at every sample:
// rss_mb is the median over the window, because a peak is one garbage
// collection's luck and moved by a tenth from run to run.
const (
	meterVerifies = 40 // per sample: about 2 ms, 4 % of one core
	meterPeriod   = 50 * time.Millisecond
	// nominalVerifyNs is what one verification costs on the machine the
	// bounds were measured on when its neighbours are quiet. Scaling to
	// it keeps the reported times near what a clock would show there.
	nominalVerifyNs = 54_000.0
	// meterShare is the exponent explained above.
	meterShare = 0.85
	// meterPad widens every interval the meter is asked about, so that
	// an operation of a few milliseconds still has ten samples around it.
	meterPad = 250 * time.Millisecond
)

// meter samples the speed of the machine's cores for as long as it runs.
type meter struct {
	t0   time.Time
	quit chan struct{}
	done chan struct{}

	mu  sync.Mutex
	at  []time.Duration // sample times since t0, ascending
	cum []float64       // cum[i] is the sum of the first i samples, ns per verification
	rss []float64       // resident set at each sample, MB
}

func startMeter(t0 time.Time) *meter {
	m := &meter{t0: t0, quit: make(chan struct{}), done: make(chan struct{}), cum: []float64{0}}
	go m.run()
	return m
}

func (m *meter) stop() {
	close(m.quit)
	<-m.done
}

// threadCPU is the processor time the calling thread has used.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

func (m *meter) run() {
	defer close(m.done)
	// The goroutine keeps one thread to itself, so the thread's processor
	// time is this work's alone.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	priv := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	pub := priv.Public().(ed25519.PublicKey)
	msg := make([]byte, payloadBytes)
	sig := ed25519.Sign(priv, msg)
	tick := time.NewTicker(meterPeriod)
	defer tick.Stop()
	for {
		start := threadCPU()
		for i := 0; i < meterVerifies; i++ {
			if !ed25519.Verify(pub, msg, sig) {
				panic("benchmark: the meter's own signature does not verify")
			}
		}
		ns := float64(threadCPU()-start) / meterVerifies
		m.mu.Lock()
		m.at = append(m.at, time.Since(m.t0))
		m.cum = append(m.cum, m.cum[len(m.cum)-1]+ns)
		m.rss = append(m.rss, residentMB())
		m.mu.Unlock()
		select {
		case <-m.quit:
			return
		case <-tick.C:
		}
	}
}

// residentMB reads the process's resident set from /proc/self/statm.
func residentMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(fields[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// span returns the indices [i, j) of the samples taken in [from, to].
func (m *meter) span(from, to time.Time) (i, j int) {
	lo, hi := from.Sub(m.t0), to.Sub(m.t0)
	i = sort.Search(len(m.at), func(i int) bool { return m.at[i] >= lo })
	j = sort.Search(len(m.at), func(i int) bool { return m.at[i] > hi })
	return i, j
}

// rssMB is the median resident set over [from, to].
func (m *meter) rssMB(from, to time.Time) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	i, j := m.span(from, to)
	return median(m.rss[i:j])
}

// verifyNs is the mean cost of one verification over [from, to], widened
// by meterPad on both sides; 0 when the meter took no sample there.
func (m *meter) verifyNs(from, to time.Time) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	i, j := m.span(from.Add(-meterPad), to.Add(meterPad))
	if j <= i {
		return 0
	}
	return (m.cum[j] - m.cum[i]) / float64(j-i)
}

// slowness is how much longer than nominal the machine took for the
// same work over [from, to]. A nil meter reads 1: the raw clock.
func (m *meter) slowness(from, to time.Time) float64 {
	if m == nil {
		return 1
	}
	if ns := m.verifyNs(from, to); ns > 0 {
		return math.Pow(ns/nominalVerifyNs, meterShare)
	}
	return 1
}

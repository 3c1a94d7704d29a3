package netsim

import (
	"container/heap"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/seldel/seldel/internal/simclock"
)

// Errors returned by the network.
var (
	ErrClosed        = errors.New("netsim: network closed")
	ErrUnknownTarget = errors.New("netsim: unknown endpoint")
	ErrDuplicateName = errors.New("netsim: endpoint name taken")
)

// Message is one delivered datagram.
type Message struct {
	// From and To are endpoint names.
	From, To string
	// Kind is an application-defined message type tag.
	Kind string
	// Payload is the opaque message body.
	Payload []byte
}

// Handler consumes messages delivered to an endpoint. Handlers run on the
// endpoint's delivery goroutine, one message at a time.
type Handler func(Message)

// Config parameterizes a Network.
type Config struct {
	// Latency delays every delivery on the virtual clock; zero keeps the
	// network synchronous enough for deterministic tests.
	Latency time.Duration
	// DropRate is the probability in [0,1) of silently dropping a
	// message (broadcast copies drop independently).
	DropRate float64
	// Seed drives the deterministic drop, loss, and jitter decisions.
	// Decisions are keyed per directed link and per-link sequence number,
	// not by global draw order, so they do not depend on goroutine
	// interleaving.
	Seed int64
}

// inboxSize bounds each endpoint's inbox.
const inboxSize = 1024

// LinkProfile shapes one directed link of the simulated WAN.
type LinkProfile struct {
	// Delay is the one-way propagation delay (virtual time).
	Delay time.Duration
	// Jitter adds a deterministic per-message extra delay in [0, Jitter).
	Jitter time.Duration
	// Loss is the probability in [0,1) of dropping a message on this
	// link, independent of the network-wide DropRate.
	Loss float64
}

func (p LinkProfile) zero() bool {
	return p.Delay == 0 && p.Jitter == 0 && p.Loss == 0
}

// Stats counts network activity.
type Stats struct {
	Sent      uint64
	Delivered uint64
	Dropped   uint64
	Bytes     uint64
}

type linkKey struct{ from, to string }

// pendingMsg is a message waiting in the virtual-time delay heap.
type pendingMsg struct {
	due    uint64 // virtual nanoseconds at which the message arrives
	seq    uint64 // tie-break: FIFO among equal due times
	target *Endpoint
	msg    Message
}

type delayHeap []pendingMsg

func (h delayHeap) Len() int { return len(h) }
func (h delayHeap) Less(i, j int) bool {
	if h[i].due != h[j].due {
		return h[i].due < h[j].due
	}
	return h[i].seq < h[j].seq
}
func (h delayHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *delayHeap) Push(x any)   { *h = append(*h, x.(pendingMsg)) }
func (h *delayHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Network routes messages between named endpoints.
type Network struct {
	mu        sync.Mutex
	cfg       Config
	endpoints map[string]*Endpoint
	groups    map[string]int // partition group per endpoint; same group = reachable
	lag       map[string]time.Duration
	links     map[linkKey]LinkProfile
	linkSeq   map[linkKey]uint64
	geo       *Geo
	pending   delayHeap
	pendSeq   uint64
	// clock is the virtual timebase, in nanoseconds from zero. All
	// latency, lag and link delays are simulated by advancing it during
	// Flush — the harness never sleeps for simulated time, so a 100-node
	// WAN drill with 80ms links runs as fast as the handlers can go.
	clock  *simclock.Logical
	stats  Stats
	closed bool
	wg     sync.WaitGroup
	// inFlight counts messages from the moment they are accepted for
	// immediate delivery until their handler returns (covering inbox
	// residence and handler execution); Flush waits for it to hit zero
	// before advancing virtual time. Messages waiting in the delay heap
	// are NOT counted here — they are released by Flush. Guarded by
	// flightMu; flightZero signals the zero crossing so Flush can wake
	// immediately instead of sleep-polling (the virtual clock releases
	// one due-instant batch per quiescent window, so this wait is on the
	// drill hot path at WAN scale).
	flightMu   sync.Mutex
	flightCond *sync.Cond
	inFlight   int64
}

// New creates a network.
func New(cfg Config) *Network {
	n := &Network{
		cfg:       cfg,
		endpoints: make(map[string]*Endpoint),
		groups:    make(map[string]int),
		lag:       make(map[string]time.Duration),
		links:     make(map[linkKey]LinkProfile),
		linkSeq:   make(map[linkKey]uint64),
		clock:     simclock.NewLogical(0),
	}
	n.flightCond = sync.NewCond(&n.flightMu)
	return n
}

// addFlight adjusts the in-flight message count, waking Flush when the
// count returns to zero.
func (n *Network) addFlight(d int64) {
	n.flightMu.Lock()
	n.inFlight += d
	if n.inFlight == 0 {
		n.flightCond.Broadcast()
	}
	n.flightMu.Unlock()
}

func (n *Network) flightZero() bool {
	n.flightMu.Lock()
	defer n.flightMu.Unlock()
	return n.inFlight == 0
}

// Now returns the elapsed virtual time since the clock's zero point.
func (n *Network) Now() time.Duration { return time.Duration(n.clock.Now()) }

// Endpoint is one attached participant.
type Endpoint struct {
	name    string
	net     *Network
	inbox   chan Message
	handler Handler
	done    chan struct{}
	stop    sync.Once
	// sendMu orders enqueues against shutdown: dead flips to true
	// strictly before done closes, so any message that entered the
	// inbox while alive is guaranteed to be consumed by run's final
	// drain — inFlight can never leak into a reader-less channel.
	sendMu sync.Mutex
	dead   bool
}

// shutdown marks the endpoint dead (no new enqueues) and then releases
// its delivery goroutine. The ordering is the crux: every producer
// holds sendMu while enqueueing, so after shutdown acquires it, no
// message can enter the inbox anymore — whatever is already there is
// handled by run's drain, and later senders see dead and drop.
func (ep *Endpoint) shutdown() {
	ep.sendMu.Lock()
	ep.dead = true
	ep.sendMu.Unlock()
	ep.stop.Do(func() { close(ep.done) })
}

// Join attaches a named endpoint with the given handler.
func (n *Network) Join(name string, handler Handler) (*Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, ok := n.endpoints[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateName, name)
	}
	ep := &Endpoint{
		name:    name,
		net:     n,
		inbox:   make(chan Message, inboxSize),
		handler: handler,
		done:    make(chan struct{}),
	}
	n.endpoints[name] = ep
	n.groups[name] = 0
	n.wg.Add(1)
	go ep.run(&n.wg)
	return ep, nil
}

func (ep *Endpoint) run(wg *sync.WaitGroup) {
	defer wg.Done()
	handle := func(msg Message) {
		defer ep.net.addFlight(-1) // accepted at send/release time
		ep.handler(msg)
	}
	for {
		select {
		case msg := <-ep.inbox:
			handle(msg)
		case <-ep.done:
			// Drain whatever is already queued, then stop.
			for {
				select {
				case msg := <-ep.inbox:
					handle(msg)
				default:
					return
				}
			}
		}
	}
}

// Send sends a unicast message from this endpoint.
func (ep *Endpoint) Send(to, kind string, payload []byte) error {
	return ep.net.send(ep.name, to, kind, payload)
}

// Broadcast sends to every other endpoint reachable from this one.
func (ep *Endpoint) Broadcast(kind string, payload []byte) {
	ep.net.broadcast(ep.name, kind, payload)
}

// Leave detaches the endpoint from the network: messages already queued
// are still handled, new messages addressed to the name fail with
// ErrUnknownTarget, and the name becomes free for a future Join — the
// node-restart scenario. Leave is idempotent and safe to race with a
// network Close.
func (ep *Endpoint) Leave() {
	n := ep.net
	n.mu.Lock()
	if n.endpoints[ep.name] == ep {
		delete(n.endpoints, ep.name)
		delete(n.groups, ep.name)
		delete(n.lag, ep.name)
	}
	n.mu.Unlock()
	ep.shutdown()
}

// splitmix64 is the SplitMix64 finalizer — a strong 64-bit mixer used to
// derive per-message pseudo-random decisions from (seed, link, counter)
// keys so that drop and jitter outcomes depend only on the link's own
// message sequence, never on cross-link goroutine interleaving.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hashString(s string) uint64 {
	// FNV-1a.
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// linkDraw returns a deterministic uniform value in [0,1) for the seq-th
// message on the directed link, per salt (distinct salts give independent
// decision streams: network drop, link loss, jitter).
func (n *Network) linkDraw(key linkKey, seq, salt uint64) float64 {
	h := splitmix64(uint64(n.cfg.Seed) ^ hashString(key.from))
	h = splitmix64(h ^ hashString(key.to))
	h = splitmix64(h ^ seq)
	h = splitmix64(h ^ salt)
	return float64(h>>11) / (1 << 53)
}

const (
	saltDrop   = 0x01
	saltLoss   = 0x02
	saltJitter = 0x03
)

// profileFor resolves the directed link profile: explicit SetLink
// overrides win, then the installed Geo topology, then the zero profile.
// Caller holds n.mu.
func (n *Network) profileFor(key linkKey) LinkProfile {
	if p, ok := n.links[key]; ok {
		return p
	}
	if n.geo != nil {
		if p, ok := n.geo.profile(key.from, key.to); ok {
			return p
		}
	}
	return LinkProfile{}
}

func (n *Network) send(from, to, kind string, payload []byte) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	target, ok := n.endpoints[to]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownTarget, to)
	}
	n.stats.Sent++
	n.stats.Bytes += uint64(len(payload))
	if n.groups[from] != n.groups[to] {
		// Partitioned: message silently lost, like a real partition.
		n.stats.Dropped++
		n.mu.Unlock()
		return nil
	}
	key := linkKey{from, to}
	seq := n.linkSeq[key]
	n.linkSeq[key] = seq + 1
	profile := n.profileFor(key)
	if n.cfg.DropRate > 0 && n.linkDraw(key, seq, saltDrop) < n.cfg.DropRate {
		n.stats.Dropped++
		n.mu.Unlock()
		return nil
	}
	if profile.Loss > 0 && n.linkDraw(key, seq, saltLoss) < profile.Loss {
		n.stats.Dropped++
		n.mu.Unlock()
		return nil
	}
	// A lagging endpoint is slow on both directions of its link: its
	// uplink and downlink delays stack on the network-wide latency and
	// the directed link profile.
	latency := n.cfg.Latency + n.lag[from] + n.lag[to] + profile.Delay
	if profile.Jitter > 0 {
		latency += time.Duration(n.linkDraw(key, seq, saltJitter) * float64(profile.Jitter))
	}
	msg := Message{From: from, To: to, Kind: kind, Payload: payload}
	if latency > 0 {
		// Park in the virtual-time heap; Flush advances the clock and
		// releases it. No wall time passes for simulated delay.
		heap.Push(&n.pending, pendingMsg{
			due:    n.clock.Now() + uint64(latency),
			seq:    n.pendSeq,
			target: target,
			msg:    msg,
		})
		n.pendSeq++
		n.mu.Unlock()
		return nil
	}
	n.mu.Unlock()
	n.addFlight(1) // released by the receiver's handler (or on drop)
	n.deliver(target, msg)
	return nil
}

// deliver hands msg to the target's inbox, accounting for a concurrent
// leave. The caller must already have incremented inFlight.
func (n *Network) deliver(target *Endpoint, msg Message) {
	target.sendMu.Lock()
	defer target.sendMu.Unlock()
	if target.dead {
		n.addFlight(-1) // receiver left; treat as drop
		return
	}
	// Not dead, so run() is still draining: this send cannot block
	// forever, and the message is guaranteed to be handled.
	target.inbox <- msg
	n.mu.Lock()
	n.stats.Delivered++
	n.mu.Unlock()
}

func (n *Network) broadcast(from, kind string, payload []byte) {
	n.mu.Lock()
	names := make([]string, 0, len(n.endpoints))
	for name := range n.endpoints {
		if name != from {
			names = append(names, name)
		}
	}
	n.mu.Unlock()
	for _, to := range names {
		// Errors (unknown target after a concurrent leave) are ignored;
		// broadcast is best-effort like UDP gossip.
		_ = n.send(from, to, kind, payload)
	}
}

// Partition splits the endpoints into isolated groups. Endpoints not
// mentioned in any group join group 0. Messages only flow within a group
// (the eclipse/isolation scenario of §V-B.4).
func (n *Network) Partition(groups ...[]string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for name := range n.groups {
		n.groups[name] = 0
	}
	for i, group := range groups {
		for _, name := range group {
			n.groups[name] = i + 1
		}
	}
}

// Heal removes all partitions.
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for name := range n.groups {
		n.groups[name] = 0
	}
}

// SetDropRate changes the network-wide drop probability.
func (n *Network) SetDropRate(r float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cfg.DropRate = r
}

// SetPeerLatency adds a delivery delay to every message sent to or from
// the named endpoint — the lagging-node scenario. Zero removes the lag.
// The delay is virtual: Flush advances the clock past it without
// sleeping.
func (n *Network) SetPeerLatency(name string, d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if d <= 0 {
		delete(n.lag, name)
		return
	}
	n.lag[name] = d
}

// SetLink installs a directed link profile between two endpoints,
// overriding any installed Geo topology for that pair. A zero profile
// removes the override.
func (n *Network) SetLink(from, to string, p LinkProfile) {
	n.mu.Lock()
	defer n.mu.Unlock()
	key := linkKey{from, to}
	if p.zero() {
		delete(n.links, key)
		return
	}
	n.links[key] = p
}

// SetGeo installs (or, with nil, removes) a geographic topology: every
// directed pair of endpoints not covered by an explicit SetLink override
// takes its profile from the regions the endpoints are assigned to.
func (n *Network) SetGeo(g *Geo) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.geo = g
}

// Stats returns a snapshot of the traffic counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// Close shuts the network down and waits for all deliveries to finish.
// Messages still parked in the virtual-time heap are discarded (UDP-like
// shutdown semantics, matching the in-flight drop behaviour).
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.pending = nil
	eps := make([]*Endpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		eps = append(eps, ep)
	}
	n.mu.Unlock()
	for _, ep := range eps {
		ep.shutdown()
	}
	n.wg.Wait()
}

// Flush blocks until the network reaches quiescence: all inboxes are
// empty, no handler is running, and the virtual-time heap is drained.
// It alternates two phases — wait for running handlers to finish, then
// advance the virtual clock to the next delivery time and release that
// batch — so simulated WAN latency costs no wall-clock time. Tests use
// Flush instead of sleeping.
func (n *Network) Flush() {
	for {
		n.waitHandlers()
		if n.releaseNextDue() {
			continue
		}
		// Nothing due; if a handler snuck a zero-latency send in after
		// the wait, loop once more, otherwise the network is quiet.
		if n.flightZero() && !n.hasPending() {
			return
		}
	}
}

func (n *Network) waitHandlers() {
	n.flightMu.Lock()
	for n.inFlight != 0 {
		n.flightCond.Wait()
	}
	n.flightMu.Unlock()
}

func (n *Network) hasPending() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.pending) > 0
}

// releaseNextDue pops every parked message sharing the earliest due
// time, advances the virtual clock to that instant, and delivers the
// batch in send order. It reports whether anything was released.
func (n *Network) releaseNextDue() bool {
	n.mu.Lock()
	if len(n.pending) == 0 {
		n.mu.Unlock()
		return false
	}
	due := n.pending[0].due
	var batch []pendingMsg
	for len(n.pending) > 0 && n.pending[0].due == due {
		batch = append(batch, heap.Pop(&n.pending).(pendingMsg))
	}
	n.mu.Unlock()
	n.clock.Set(due)
	for _, pm := range batch {
		n.addFlight(1)
		n.deliver(pm.target, pm.msg)
	}
	return true
}

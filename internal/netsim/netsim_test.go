package netsim

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// collector records delivered messages.
type collector struct {
	mu   sync.Mutex
	msgs []Message
}

func (c *collector) handle(m Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgs = append(c.msgs, m)
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func (c *collector) last() (Message, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.msgs) == 0 {
		return Message{}, false
	}
	return c.msgs[len(c.msgs)-1], true
}

func TestUnicastDelivery(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	var got collector
	a, err := n.Join("a", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Join("b", got.handle); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", "ping", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	n.Flush()
	msg, ok := got.last()
	if !ok {
		t.Fatal("no message delivered")
	}
	if msg.From != "a" || msg.To != "b" || msg.Kind != "ping" || string(msg.Payload) != "hello" {
		t.Errorf("msg = %+v", msg)
	}
}

func TestSendErrors(t *testing.T) {
	n := New(Config{})
	a, err := n.Join("a", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send("ghost", "x", nil); !errors.Is(err, ErrUnknownTarget) {
		t.Errorf("err = %v, want ErrUnknownTarget", err)
	}
	if _, err := n.Join("a", func(Message) {}); !errors.Is(err, ErrDuplicateName) {
		t.Errorf("err = %v, want ErrDuplicateName", err)
	}
	n.Close()
	if err := a.Send("a", "x", nil); !errors.Is(err, ErrClosed) {
		t.Errorf("err after close = %v, want ErrClosed", err)
	}
	if _, err := n.Join("c", func(Message) {}); !errors.Is(err, ErrClosed) {
		t.Errorf("join after close = %v, want ErrClosed", err)
	}
}

func TestBroadcastReachesAllButSender(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	var b, c collector
	var selfCount atomic.Int64
	a, err := n.Join("a", func(Message) { selfCount.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Join("b", b.handle); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Join("c", c.handle); err != nil {
		t.Fatal(err)
	}
	a.Broadcast("gossip", []byte("x"))
	n.Flush()
	if b.count() != 1 || c.count() != 1 {
		t.Errorf("deliveries b=%d c=%d, want 1 each", b.count(), c.count())
	}
	if selfCount.Load() != 0 {
		t.Error("broadcast delivered to sender")
	}
}

func TestFIFOOrderPerSenderPair(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	var got collector
	a, err := n.Join("a", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Join("b", got.handle); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := a.Send("b", "seq", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	n.Flush()
	got.mu.Lock()
	defer got.mu.Unlock()
	if len(got.msgs) != 100 {
		t.Fatalf("%d messages, want 100", len(got.msgs))
	}
	for i, m := range got.msgs {
		if m.Payload[0] != byte(i) {
			t.Fatalf("message %d out of order (payload %d)", i, m.Payload[0])
		}
	}
}

func TestPartitionAndHeal(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	var got collector
	a, err := n.Join("a", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Join("b", got.handle); err != nil {
		t.Fatal(err)
	}
	n.Partition([]string{"b"})
	if err := a.Send("b", "x", nil); err != nil {
		t.Fatal(err)
	}
	n.Flush()
	if got.count() != 0 {
		t.Error("message crossed partition")
	}
	stats := n.Stats()
	if stats.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", stats.Dropped)
	}
	n.Heal()
	if err := a.Send("b", "x", nil); err != nil {
		t.Fatal(err)
	}
	n.Flush()
	if got.count() != 1 {
		t.Error("message lost after heal")
	}
	// Same-group members of a named partition still talk to each other.
	n.Partition([]string{"a", "b"})
	if err := a.Send("b", "x", nil); err != nil {
		t.Fatal(err)
	}
	n.Flush()
	if got.count() != 2 {
		t.Error("same-partition message lost")
	}
}

func TestDropRate(t *testing.T) {
	n := New(Config{DropRate: 1.0, Seed: 42})
	defer n.Close()
	var got collector
	a, err := n.Join("a", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Join("b", got.handle); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := a.Send("b", "x", nil); err != nil {
			t.Fatal(err)
		}
	}
	n.Flush()
	if got.count() != 0 {
		t.Errorf("%d messages delivered at drop rate 1.0", got.count())
	}
	n.SetDropRate(0)
	if err := a.Send("b", "x", nil); err != nil {
		t.Fatal(err)
	}
	n.Flush()
	if got.count() != 1 {
		t.Error("message lost at drop rate 0")
	}
}

func TestLatencyDelaysDeliveryOnVirtualClock(t *testing.T) {
	n := New(Config{Latency: 20 * time.Millisecond})
	defer n.Close()
	var got collector
	a, err := n.Join("a", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Join("b", got.handle); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", "x", nil); err != nil {
		t.Fatal(err)
	}
	if got.count() != 0 {
		t.Fatal("latent message delivered before Flush advanced the clock")
	}
	n.Flush()
	if got.count() != 1 {
		t.Fatal("message not delivered")
	}
	// The delay is simulated: the virtual clock advanced by the latency,
	// without the wall-clock sleep the old implementation paid.
	if v := n.Now(); v != 20*time.Millisecond {
		t.Errorf("virtual clock = %v, want 20ms", v)
	}
}

func TestHandlersMaySendWithoutDeadlock(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	var final collector
	// a -> b -> c chain: b's handler forwards.
	a, err := n.Join("a", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Join("b", func(m Message) {
		_ = a // silence unused in closure pattern
	})
	_ = b
	if err != nil {
		t.Fatal(err)
	}
	// Re-join with forwarding handler requires a fresh network; instead
	// wire the forwarding through a third endpoint.
	nfwd := New(Config{})
	defer nfwd.Close()
	src, err := nfwd.Join("src", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	var hop *Endpoint
	hop, err = nfwd.Join("hop", func(m Message) {
		if m.Kind == "fwd" {
			_ = hop.Send("dst", "done", m.Payload)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nfwd.Join("dst", final.handle); err != nil {
		t.Fatal(err)
	}
	if err := src.Send("hop", "fwd", []byte("relay")); err != nil {
		t.Fatal(err)
	}
	nfwd.Flush()
	if final.count() != 1 {
		t.Error("relayed message not delivered")
	}
}

func TestStatsCounting(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a, err := n.Join("a", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Join("b", func(Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", "x", make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	n.Flush()
	s := n.Stats()
	if s.Sent != 1 || s.Delivered != 1 || s.Bytes != 10 {
		t.Errorf("stats = %+v", s)
	}
}

// Names returns the attached endpoint names.
func (n *Network) Names() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.endpoints))
	for name := range n.endpoints {
		out = append(out, name)
	}
	return out
}

// Name returns the endpoint name.
func (ep *Endpoint) Name() string { return ep.name }

func TestNamesAndEndpointName(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	ep, err := n.Join("solo", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if ep.Name() != "solo" {
		t.Errorf("Name = %q", ep.Name())
	}
	names := n.Names()
	if len(names) != 1 || names[0] != "solo" {
		t.Errorf("Names = %v", names)
	}
}

func TestCloseIsIdempotentAndWaits(t *testing.T) {
	n := New(Config{Latency: 5 * time.Millisecond})
	var got collector
	a, err := n.Join("a", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Join("b", got.handle); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := a.Send("b", "x", nil); err != nil {
			t.Fatal(err)
		}
	}
	n.Close()
	n.Close() // idempotent
	// After Close returns, no goroutines are running; whatever was
	// delivered was handled without panic. (Messages in flight during
	// shutdown may be dropped; that is acceptable UDP-like behaviour.)
}

func TestLeaveFreesNameForRejoin(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	var first, second collector
	ep, err := n.Join("node", first.handle)
	if err != nil {
		t.Fatal(err)
	}
	a, err := n.Join("a", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send("node", "x", nil); err != nil {
		t.Fatal(err)
	}
	n.Flush()
	ep.Leave()
	ep.Leave() // idempotent
	if err := a.Send("node", "x", nil); !errors.Is(err, ErrUnknownTarget) {
		t.Errorf("send to departed endpoint = %v, want ErrUnknownTarget", err)
	}
	// The name is free again: a restarted node rejoins and receives.
	if _, err := n.Join("node", second.handle); err != nil {
		t.Fatalf("rejoin after leave: %v", err)
	}
	if err := a.Send("node", "x", nil); err != nil {
		t.Fatal(err)
	}
	n.Flush()
	if first.count() != 1 || second.count() != 1 {
		t.Errorf("delivery counts: first=%d second=%d, want 1/1", first.count(), second.count())
	}
}

func TestPeerLatencyLagsOneEndpoint(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	var fast, slow collector
	a, err := n.Join("a", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Join("fast", fast.handle); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Join("slow", slow.handle); err != nil {
		t.Fatal(err)
	}
	n.SetPeerLatency("slow", 20*time.Millisecond)
	if err := a.Send("fast", "x", nil); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("slow", "x", nil); err != nil {
		t.Fatal(err)
	}
	n.Flush()
	if v := n.Now(); v != 20*time.Millisecond {
		t.Errorf("virtual clock = %v, lagged delivery should advance it to 20ms", v)
	}
	if fast.count() != 1 || slow.count() != 1 {
		t.Errorf("delivery counts: fast=%d slow=%d", fast.count(), slow.count())
	}
	// Clearing the lag restores immediate delivery: no further virtual
	// time passes.
	n.SetPeerLatency("slow", 0)
	before := n.Now()
	if err := a.Send("slow", "x", nil); err != nil {
		t.Fatal(err)
	}
	n.Flush()
	if v := n.Now(); v != before {
		t.Errorf("cleared lag still advanced the clock by %v", v-before)
	}
	if slow.count() != 2 {
		t.Errorf("slow count = %d, want 2", slow.count())
	}
}

func TestScenarioRunsStepsAndSkipsAfterFailure(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	var got collector
	a, err := n.Join("a", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Join("b", got.handle); err != nil {
		t.Fatal(err)
	}
	sc := NewScenario(n)
	_ = sc.Step("send", func() error { return a.Send("b", "x", nil) })
	// The step flushed: the message is already handled, no Flush needed.
	_ = sc.Check("delivered", func() error {
		if got.count() != 1 {
			return errors.New("not delivered")
		}
		return nil
	})
	if sc.Err() != nil {
		t.Fatalf("clean scenario reports error: %v", sc.Err())
	}
	boom := errors.New("boom")
	if err := sc.Step("fails", func() error { return boom }); !errors.Is(err, boom) {
		t.Errorf("failing step returned %v", err)
	}
	if err := sc.Step("after", func() error { return nil }); !errors.Is(err, boom) {
		t.Error("step after a failure was not skipped")
	}
	hist := sc.History()
	if len(hist) != 4 || hist[0].Name != "send" || hist[2].Err == nil || hist[3].Err == nil {
		t.Errorf("history = %+v", hist)
	}
	if !errors.Is(sc.Err(), boom) {
		t.Errorf("scenario error = %v", sc.Err())
	}
}

func TestScenarioPartitionHeal(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	var got collector
	a, err := n.Join("a", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Join("b", got.handle); err != nil {
		t.Fatal(err)
	}
	sc := NewScenario(n)
	_ = sc.Partition("isolate b", []string{"b"})
	_ = sc.Step("send into partition", func() error { return a.Send("b", "x", nil) })
	_ = sc.Heal("heal")
	_ = sc.Step("send after heal", func() error { return a.Send("b", "x", nil) })
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	if got.count() != 1 {
		t.Errorf("delivered %d, want 1 (partitioned send dropped)", got.count())
	}
}

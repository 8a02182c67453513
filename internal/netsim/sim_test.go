package netsim

import (
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	s := NewSim(1)
	var got []int
	s.Schedule(3*time.Millisecond, func() { got = append(got, 3) })
	s.Schedule(1*time.Millisecond, func() { got = append(got, 1) })
	s.Schedule(2*time.Millisecond, func() { got = append(got, 2) })
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", got)
	}
	if s.Now() != 3*time.Millisecond {
		t.Errorf("final time = %v", s.Now())
	}
}

func TestScheduleFIFOAtSameInstant(t *testing.T) {
	s := NewSim(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events reordered: %v", got)
		}
	}
}

func TestScheduleNegativeDelayClamped(t *testing.T) {
	s := NewSim(1)
	fired := false
	s.Schedule(-time.Second, func() { fired = true })
	s.Run()
	if !fired || s.Now() != 0 {
		t.Errorf("fired=%v now=%v", fired, s.Now())
	}
}

func TestRunUntil(t *testing.T) {
	s := NewSim(1)
	count := 0
	for i := 1; i <= 5; i++ {
		s.Schedule(time.Duration(i)*time.Second, func() { count++ })
	}
	s.RunUntil(3 * time.Second)
	if count != 3 {
		t.Errorf("count = %d, want 3", count)
	}
	if s.Now() != 3*time.Second {
		t.Errorf("now = %v, want 3s", s.Now())
	}
	if s.Pending() != 2 {
		t.Errorf("pending = %d, want 2", s.Pending())
	}
}

func TestStop(t *testing.T) {
	s := NewSim(1)
	count := 0
	s.Schedule(time.Second, func() { count++; s.Stop() })
	s.Schedule(2*time.Second, func() { count++ })
	s.Run()
	if count != 1 {
		t.Errorf("count = %d, want 1 after Stop", count)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		s := NewSim(42)
		var vals []int64
		for i := 0; i < 100; i++ {
			d := time.Duration(s.Rand().Intn(1000)) * time.Microsecond
			s.Schedule(d, func() { vals = append(vals, int64(s.Now())) })
		}
		s.Run()
		return vals
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// collector gathers delivered packets with their arrival times.
type collector struct {
	pkts  []*Packet
	times []Time
}

func (c *collector) Handle(s *Sim, p *Packet) {
	c.pkts = append(c.pkts, p)
	c.times = append(c.times, s.Now())
}

func TestLinkDelayAndSerialisation(t *testing.T) {
	s := NewSim(1)
	c := &collector{}
	l := &Link{RateBps: 8e6, Delay: 10 * time.Millisecond, Dst: c} // 1 MB/s
	p := &Packet{Size: 1000}                                       // 1ms serialisation
	l.Send(s, p)
	s.Run()
	if len(c.pkts) != 1 {
		t.Fatal("packet not delivered")
	}
	want := 11 * time.Millisecond
	if c.times[0] != want {
		t.Errorf("arrival = %v, want %v", c.times[0], want)
	}
}

func TestLinkInfiniteRate(t *testing.T) {
	s := NewSim(1)
	c := &collector{}
	l := &Link{RateBps: 0, Delay: 5 * time.Millisecond, Dst: c}
	l.Send(s, &Packet{Size: 1 << 20})
	s.Run()
	if c.times[0] != 5*time.Millisecond {
		t.Errorf("arrival = %v, want 5ms", c.times[0])
	}
}

func TestLinkQueueingBackToBack(t *testing.T) {
	s := NewSim(1)
	c := &collector{}
	l := &Link{RateBps: 8e6, Delay: 0, Dst: c}
	// Two packets sent at t=0: second must wait for the first's
	// serialisation.
	l.Send(s, &Packet{Size: 1000})
	l.Send(s, &Packet{Size: 1000})
	s.Run()
	if len(c.times) != 2 {
		t.Fatal("packets not delivered")
	}
	if c.times[0] != time.Millisecond || c.times[1] != 2*time.Millisecond {
		t.Errorf("arrivals = %v, want [1ms 2ms]", c.times)
	}
}

func TestLinkDropTail(t *testing.T) {
	s := NewSim(1)
	c := &collector{}
	l := &Link{RateBps: 8e6, Delay: 0, QueueByte: 2500, Dst: c}
	for i := 0; i < 5; i++ {
		l.Send(s, &Packet{ID: uint64(i), Size: 1000})
	}
	s.Run()
	st := l.Stats()
	// The backlog includes the packet in transmission. Packet 1 starts
	// transmitting (backlog 1000), packet 2 queues (backlog 2000); packet 3
	// would push the backlog to 3000 > 2500, so packets 3-5 drop.
	if st.SentPackets != 2 {
		t.Errorf("sent = %d, want 2", st.SentPackets)
	}
	if st.DroppedPackets != 3 {
		t.Errorf("dropped = %d, want 3", st.DroppedPackets)
	}
	if st.LossDropped != 0 {
		t.Errorf("loss-dropped = %d, want 0", st.LossDropped)
	}
	if len(c.pkts) != 2 {
		t.Errorf("delivered = %d, want 2", len(c.pkts))
	}
}

func TestLinkLossFn(t *testing.T) {
	s := NewSim(1)
	c := &collector{}
	drop := true
	l := &Link{RateBps: 8e6, Dst: c, LossFn: func(Time, *Packet) bool { return drop }}
	l.Send(s, &Packet{Size: 100})
	drop = false
	l.Send(s, &Packet{Size: 100})
	s.Run()
	if len(c.pkts) != 1 {
		t.Fatalf("delivered = %d, want 1", len(c.pkts))
	}
	st := l.Stats()
	if st.LossDropped != 1 || st.DroppedPackets != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLinkDynamicDelayAndRate(t *testing.T) {
	s := NewSim(1)
	c := &collector{}
	l := &Link{
		RateBps: 8e6,
		Dst:     c,
		DelayFn: func(now Time) Time { return 7 * time.Millisecond },
		RateFn:  func(now Time) float64 { return 16e6 }, // doubles the rate
	}
	l.Send(s, &Packet{Size: 1000}) // 0.5ms at 16 Mbps
	s.Run()
	want := 7*time.Millisecond + 500*time.Microsecond
	if c.times[0] != want {
		t.Errorf("arrival = %v, want %v", c.times[0], want)
	}
}

func TestLinkQueueDelayReporting(t *testing.T) {
	s := NewSim(1)
	l := &Link{RateBps: 8e6, Dst: &collector{}}
	if l.QueueDelay(0) != 0 {
		t.Error("idle link should report zero queue delay")
	}
	l.Send(s, &Packet{Size: 1000})
	if got := l.QueueDelay(0); got != time.Millisecond {
		t.Errorf("queue delay = %v, want 1ms", got)
	}
}

func TestLinkPanicsWithoutDst(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for nil Dst")
		}
	}()
	l := &Link{}
	l.Send(NewSim(1), &Packet{Size: 10})
}

func TestNodeLocalDelivery(t *testing.T) {
	s := NewSim(1)
	n := NewNode("host", "")
	c := &collector{}
	n.RegisterLocal(5201, c)
	n.Handle(s, &Packet{Dst: "host", DstPort: 5201, Size: 10})
	n.Handle(s, &Packet{Dst: "host", DstPort: 9999, Size: 10}) // no listener
	s.Run()
	if len(c.pkts) != 1 {
		t.Errorf("delivered = %d, want 1", len(c.pkts))
	}
	n.UnregisterLocal(5201)
	n.Handle(s, &Packet{Dst: "host", DstPort: 5201, Size: 10})
	s.Run()
	if len(c.pkts) != 1 {
		t.Error("delivery after UnregisterLocal")
	}
}

// TestAddRouteReplaces: a second AddRoute to a destination replaces its
// link, and a destination with no route takes the default one.
func TestAddRouteReplaces(t *testing.T) {
	n := NewNode("r", "")
	a, b, def := &Link{Name: "a"}, &Link{Name: "b"}, &Link{Name: "def"}
	if got := n.route("x"); got != nil {
		t.Fatalf("route with no table = %v, want nil", got)
	}
	n.AddRoute("x", a)
	n.AddRoute("y", a)
	n.AddRoute("x", b)
	n.SetDefaultRoute(def)
	for dst, want := range map[string]*Link{"x": b, "y": a, "z": def} {
		if got := n.route(dst); got != want {
			t.Errorf("route(%q) = %p, want link %s (%p)", dst, got, want.Name, want)
		}
	}
}

func newTestPath(t *testing.T, hops int) (*Sim, *Path) {
	t.Helper()
	s := NewSim(7)
	nodes := make([]*Node, hops)
	specs := make([]LinkSpec, hops-1)
	for i := range nodes {
		nodes[i] = NewNode(nodeName(i), "")
	}
	for i := range specs {
		specs[i] = LinkSpec{RateBps: 100e6, Delay: 2 * time.Millisecond}
	}
	p, err := NewPath(nodes, specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s, p
}

func nodeName(i int) string { return string(rune('a'+i)) + "-node" }

func TestPathEndToEnd(t *testing.T) {
	s, p := newTestPath(t, 4)
	c := &collector{}
	p.Server().RegisterLocal(80, c)
	pkt := &Packet{Src: p.Client().Name, Dst: p.Server().Name, DstPort: 80, Size: 100, TTL: 64}
	p.Client().Handle(s, pkt)
	s.Run()
	if len(c.pkts) != 1 {
		t.Fatal("packet did not traverse path")
	}
	// 3 hops x 2ms propagation + 3 x 8us serialisation.
	want := 6*time.Millisecond + 3*8*time.Microsecond
	if c.times[0] != want {
		t.Errorf("arrival = %v, want %v", c.times[0], want)
	}
}

func TestPathReverse(t *testing.T) {
	s, p := newTestPath(t, 3)
	c := &collector{}
	p.Client().RegisterLocal(4000, c)
	pkt := &Packet{Src: p.Server().Name, Dst: p.Client().Name, DstPort: 4000, Size: 100, TTL: 64}
	p.Server().Handle(s, pkt)
	s.Run()
	if len(c.pkts) != 1 {
		t.Fatal("reverse packet not delivered")
	}
}

func TestTTLExpiryGeneratesICMP(t *testing.T) {
	s, p := newTestPath(t, 4)
	c := &collector{}
	p.Client().RegisterLocal(33434, c)
	pkt := &Packet{
		Src: p.Client().Name, SrcPort: 33434,
		Dst: p.Server().Name, DstPort: 33434,
		Size: 60, TTL: 2, ProbeID: 77,
	}
	p.Client().Handle(s, pkt)
	s.Run()
	if len(c.pkts) != 1 {
		t.Fatal("no ICMP reply")
	}
	got := c.pkts[0]
	if got.ICMP != ICMPTimeExceeded {
		t.Errorf("ICMP type = %v", got.ICMP)
	}
	// TTL=2 from the client: decremented at node b (1), then at node c (0)
	// -> node c replies.
	if got.ICMPFrom != p.Nodes[2].HopAddr {
		t.Errorf("ICMP from %q, want %q", got.ICMPFrom, p.Nodes[2].HopAddr)
	}
	if got.ProbeID != 77 {
		t.Errorf("probe id = %d, want 77", got.ProbeID)
	}
}

func TestEchoReply(t *testing.T) {
	s, p := newTestPath(t, 3)
	c := &collector{}
	p.Client().RegisterLocal(1, c)
	pkt := &Packet{
		Src: p.Client().Name, SrcPort: 1,
		Dst: p.Server().Name, DstPort: 0,
		Size: 64, TTL: 64, ICMP: ICMPEcho, ProbeID: 5,
	}
	p.Client().Handle(s, pkt)
	s.Run()
	if len(c.pkts) != 1 {
		t.Fatal("no echo reply")
	}
	if c.pkts[0].ICMP != ICMPEchoReply || c.pkts[0].ProbeID != 5 {
		t.Errorf("reply = %+v", c.pkts[0])
	}
}

func TestNewPathValidation(t *testing.T) {
	a, b := NewNode("a", ""), NewNode("b", "")
	if _, err := NewPath([]*Node{a}, nil, nil); err == nil {
		t.Error("want error for single node")
	}
	if _, err := NewPath([]*Node{a, b}, []LinkSpec{}, nil); err == nil {
		t.Error("want error for wrong fwd spec count")
	}
	if _, err := NewPath([]*Node{a, b}, []LinkSpec{{}}, []LinkSpec{{}, {}}); err == nil {
		t.Error("want error for wrong rev spec count")
	}
	dup := NewNode("a", "")
	if _, err := NewPath([]*Node{a, dup}, []LinkSpec{{}}, nil); err == nil {
		t.Error("want error for duplicate node names")
	}
}

func TestPathBaseRTT(t *testing.T) {
	_, p := newTestPath(t, 4)
	if got := p.BaseRTT(); got != 12*time.Millisecond {
		t.Errorf("BaseRTT = %v, want 12ms", got)
	}
}

func TestAsymmetricSpecs(t *testing.T) {
	s := NewSim(1)
	a, b := NewNode("a", ""), NewNode("b", "")
	p, err := NewPath([]*Node{a, b},
		[]LinkSpec{{RateBps: 8e6, Delay: time.Millisecond}},
		[]LinkSpec{{RateBps: 1e6, Delay: 5 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	cFwd := &collector{}
	cRev := &collector{}
	b.RegisterLocal(1, cFwd)
	a.RegisterLocal(1, cRev)
	a.Handle(s, &Packet{Src: "a", Dst: "b", DstPort: 1, Size: 1000, TTL: 4})
	s.Run()
	b.Handle(s, &Packet{Src: "b", Dst: "a", DstPort: 1, Size: 1000, TTL: 4})
	s.Run()
	fwdTime := cFwd.times[0]
	revTime := cRev.times[0] - fwdTime
	if fwdTime != 2*time.Millisecond { // 1ms prop + 1ms tx at 8 Mbps
		t.Errorf("fwd = %v, want 2ms", fwdTime)
	}
	if revTime != 13*time.Millisecond { // 5ms prop + 8ms tx at 1 Mbps
		t.Errorf("rev = %v, want 13ms", revTime)
	}
	_ = p
}

func TestMutedNodeSendsNoICMP(t *testing.T) {
	s, p := newTestPath(t, 4)
	p.Nodes[2].Mute = true
	c := &collector{}
	p.Client().RegisterLocal(33434, c)
	// TTL=2 expires at the muted node: no reply at all.
	p.Client().Handle(s, &Packet{
		Src: p.Client().Name, SrcPort: 33434,
		Dst: p.Server().Name, DstPort: 33434,
		Size: 60, TTL: 2, ProbeID: 9,
	})
	s.Run()
	if len(c.pkts) != 0 {
		t.Errorf("muted node replied: %+v", c.pkts[0])
	}
	// Echo to a muted node is also silent.
	p.Nodes[3].Mute = true
	p.Client().Handle(s, &Packet{
		Src: p.Client().Name, SrcPort: 33434,
		Dst: p.Nodes[3].Name, DstPort: 0,
		Size: 64, TTL: 64, ICMP: ICMPEcho, ProbeID: 10,
	})
	s.Run()
	if len(c.pkts) != 0 {
		t.Error("muted destination answered echo")
	}
}

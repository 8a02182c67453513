// Package netsim is a deterministic discrete-event packet-level network
// simulator: simulated clock, event queue, store-and-forward links with
// implicit drop-tail queues, and nodes with TTL handling (so traceroute works
// exactly as it does on a real path).
//
// It plays the role the physical testbed played in the paper: the volunteer
// Raspberry Pis, the Starlink bent pipe, the terrestrial ISP paths and the
// measurement servers are all nodes and links in a netsim topology. The
// congestion-control experiments (Figure 8) and all throughput/loss
// experiments (Figures 6a-c) run packet by packet on this engine.
//
// Determinism: every run is driven by a seeded *rand.Rand owned by the Sim;
// two runs with the same seed produce identical event sequences.
package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"starlinkview/internal/trace"
)

// Time is simulated time since the start of the run.
type Time = time.Duration

// eventKind selects what a queued event does when it fires. The packet path
// has kinds of its own so that a hop allocates nothing; fn is the general
// path for everything else.
type eventKind uint8

const (
	evFunc    eventKind = iota // call fn
	evDeliver                  // hand link's head in-flight packet to its Dst
	evSend                     // link.Send(pkt), for replies sent after a delay
	evTimer                    // a Timer's queue entry (see fireTimer)
	evTrain                    // a Train's queue entry; fn is its advance
)

// event is one queue entry, stored by value. Only the fields its kind uses
// are set.
type event struct {
	at    Time
	seq   uint64 // tie-breaker preserving schedule order; unique per Sim
	link  *Link
	pkt   *Packet
	timer *Timer
	fn    func()
	kind  eventKind
}

func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventQueue is a 4-ary min-heap ordered by (at, seq). Because seq is unique
// the order is total, so the heap's shape cannot change which event pops
// next.
type eventQueue []event

func (q *eventQueue) push(e event) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	*q = h
}

// pop removes the root. Callers read what they need of it first.
func (q *eventQueue) pop() {
	h := *q
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // drop the references the slot held
	h = h[:n]
	h.down()
	*q = h
}

// rekey gives the root the key (at, seq) and moves it down to its place: a
// pop of the root and a push of its successor in one pass. The root has no
// parent, so any key keeps the heap valid.
func (q eventQueue) rekey(at Time, seq uint64) {
	q[0].at, q[0].seq = at, seq
	q.down()
}

// down moves the root down to its place.
func (q eventQueue) down() {
	c := q.minChild(0)
	if c < 0 || !q[c].before(&q[0]) {
		return
	}
	e := q[0]
	i := 0
	for c >= 0 && q[c].before(&e) {
		q[i] = q[c]
		i = c
		c = q.minChild(i)
	}
	q[i] = e
}

// minChild returns the index of i's earliest child, or -1 if it has none.
func (q eventQueue) minChild(i int) int {
	first := 4*i + 1
	if first >= len(q) {
		return -1
	}
	min := first
	for c := first + 1; c < first+4 && c < len(q); c++ {
		if q[c].before(&q[min]) {
			min = c
		}
	}
	return min
}

// Sim is a discrete-event simulation run.
type Sim struct {
	now     Time
	seq     uint64
	pq      eventQueue
	rng     *rand.Rand
	pktID   uint64
	stopped bool
	// backlog counts in-flight packets queued on links behind each link's
	// head, and train members behind each train's next one; only those
	// heads have queue entries, and Pending adds the rest back.
	backlog int
	// Free-list for NewPacket. It never holds more packets than NewPacket
	// has allocated or Renew handed over, so packets built by callers that
	// never draw from the list cannot pile up on it.
	free []*Packet
	made int
}

// NewSim creates a simulation with a deterministic random source.
func NewSim(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Renew returns a simulator in the state NewSim(seed) returns, built on s's
// packet free-list, event-queue storage and random source, so a later run
// grows them only past what earlier runs needed. s is zeroed, as its
// storage is the new Sim's now, and must not be used again. The result is a
// new Sim, not s reset: a link that last ran on s then still sees another
// simulator and drops what s left in flight on it (see Link.adopt), where s
// reset in place would take those packets for its own.
func (s *Sim) Renew(seed int64) *Sim {
	clear(s.pq)
	r := &Sim{pq: s.pq[:0], rng: s.rng, free: s.free, made: len(s.free)}
	r.rng.Seed(seed)
	*s = Sim{}
	return r
}

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// Rand returns the simulation's random source. All stochastic behaviour in a
// run must draw from it to keep runs reproducible.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// NextPacketID returns a fresh unique packet identifier.
func (s *Sim) NextPacketID() uint64 {
	s.pktID++
	return s.pktID
}

// NewPacket returns a zeroed packet, reusing one returned by FreePacket when
// it can.
func (s *Sim) NewPacket() *Packet {
	n := len(s.free)
	if n == 0 {
		s.made++
		return &Packet{}
	}
	p := s.free[n-1]
	s.free[n-1] = nil
	s.free = s.free[:n-1]
	p.freed = false // FreePacket zeroed the rest
	return p
}

// FreePacket hands p back for NewPacket to reuse; p need not have come from
// NewPacket. The caller must hold the last reference to p: nothing may read
// or write it afterwards.
func (s *Sim) FreePacket(p *Packet) {
	if p.freed {
		panic("netsim: packet freed twice")
	}
	*p = Packet{} // zeroed in place; Packet{freed: true} would be copied in
	p.freed = true
	if len(s.free) < s.made {
		s.free = append(s.free, p)
	}
}

// Schedule runs fn after delay of simulated time. A negative delay is
// treated as zero.
func (s *Sim) Schedule(delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	s.ScheduleAt(s.now+delay, fn)
}

// ScheduleAt runs fn at the given absolute simulated time. Times in the past
// fire immediately (at the current time).
func (s *Sim) ScheduleAt(at Time, fn func()) {
	if at < s.now {
		at = s.now
	}
	s.seq++
	s.pq.push(event{at: at, seq: s.seq, kind: evFunc, fn: fn})
}

// Train runs emit(0), …, emit(n-1) at start, start+gap, …, start+(n-1)·gap:
// a probe train. Each member fires exactly where the i-th of n back-to-back
// ScheduleAt(start+i·gap) calls would have, with the same (at, seq) position
// in the event order, but the train keeps one queue entry instead of n. Like
// ScheduleAt, members due in the past fire at the current time. A negative
// gap panics; n <= 0 schedules nothing.
func (s *Sim) Train(start, gap Time, n int, emit func(i int)) {
	if gap < 0 {
		panic(fmt.Sprintf("netsim: train gap %v is negative", gap))
	}
	if n <= 0 {
		return
	}
	t := &train{s: s, emit: emit, start: start, gap: gap, floor: s.now, base: s.seq + 1, n: n}
	t.fire = t.advance
	// Reserve the seqs the n ScheduleAt calls would have taken.
	s.seq += uint64(n)
	s.backlog += n - 1
	at, seq := t.key()
	s.pq.push(event{at: at, seq: seq, kind: evTrain, fn: t.fire})
}

// train is a Train in progress. Its one queue entry is keyed as member next
// would have been: no member's key is below the one before it, so re-keying
// the entry to the next member only when the previous one fires keeps the
// global order (the argument of Link.enqueue).
type train struct {
	s     *Sim
	emit  func(i int)
	fire  func() // advance, bound once per train
	start Time
	gap   Time
	floor Time   // the time Train was called; earlier members fire at it
	base  uint64 // member i's seq is base+i
	next  int
	n     int
}

// key is member next's place in the event order.
func (t *train) key() (Time, uint64) {
	return max(t.start+Time(t.next)*t.gap, t.floor), t.base + uint64(t.next)
}

// advance fires the train's entry, which is the root: it re-keys the entry
// to the member after next, or pops it after the last member, then emits
// next.
func (t *train) advance() {
	i := t.next
	if t.next++; t.next < t.n {
		t.s.backlog--
		t.s.pq.rekey(t.key())
	} else {
		t.s.pq.pop()
	}
	t.emit(i)
}

// sendAfter runs l.Send(s, p) after delay, as Schedule would, without a
// closure.
func (s *Sim) sendAfter(delay Time, l *Link, p *Packet) {
	if delay < 0 {
		delay = 0
	}
	s.seq++
	s.pq.push(event{at: s.now + delay, seq: s.seq, kind: evSend, link: l, pkt: p})
}

// Stop makes Run and RunUntil return after the current event completes.
func (s *Sim) Stop() { s.stopped = true }

// Run processes events until the queue is empty or Stop is called.
func (s *Sim) Run() {
	for len(s.pq) > 0 && !s.stopped {
		s.step()
	}
}

// RunUntil processes all events scheduled at or before t, then advances the
// clock to t.
func (s *Sim) RunUntil(t Time) {
	for len(s.pq) > 0 && !s.stopped && s.pq[0].at <= t {
		s.step()
	}
	if !s.stopped && s.now < t {
		s.now = t
	}
}

// step fires the earliest event, the root. An event whose source has a
// successor — a delivery with another packet in flight behind it, a train
// member that is not the last, a timer entry re-armed to a later deadline —
// re-keys the root to that successor in place; every other event pops it.
// Either way the queue is settled before the event's callback runs.
func (s *Sim) step() {
	e := &s.pq[0]
	s.now = e.at
	switch e.kind {
	case evDeliver:
		e.link.deliver(s, e.seq)
	case evSend:
		l, p := e.link, e.pkt
		s.pq.pop()
		l.Send(s, p)
	case evTimer:
		s.fireTimer(e.timer, e.seq)
	case evTrain:
		e.fn()
	default:
		fn := e.fn
		s.pq.pop()
		fn()
	}
}

// Pending returns the number of queued events, counting every packet in
// flight on a link and every train member yet to fire.
func (s *Sim) Pending() int { return len(s.pq) + s.backlog }

// Timer is a re-armable one-shot callback, for protocol timers that are
// re-armed far more often than they fire (TCP's retransmission timeout).
// It fires exactly when a Schedule'd closure guarded by an epoch counter
// would, with the same (at, seq) position in the event order, but keeps at
// most one live queue entry instead of one per arming.
type Timer struct {
	fn    func()
	armed bool
	at    Time   // deadline of the current arming
	seq   uint64 // seq the current arming reserved
	// qAt and qSeq key the timer's live queue entry; qSeq is 0 when it has
	// none. While armed, (qAt, qSeq) <= (at, seq).
	qAt  Time
	qSeq uint64
}

// NewTimer returns a stopped timer that calls fn when it fires.
func (s *Sim) NewTimer(fn func()) *Timer { return &Timer{fn: fn} }

// ResetTimer arms t to fire after d (negative d is zero), replacing any
// earlier arming. It takes a seq exactly as Schedule would, so a re-armed
// timer fires where the equivalent closure would have.
func (s *Sim) ResetTimer(t *Timer, d Time) {
	if d < 0 {
		d = 0
	}
	s.seq++
	t.armed, t.at, t.seq = true, s.now+d, s.seq
	// A live entry due no later than the new deadline is re-keyed to it
	// when it comes up; an earlier deadline needs an entry of its own, and
	// the old one becomes stale.
	if t.qSeq == 0 || t.qAt > t.at {
		t.qAt, t.qSeq = t.at, t.seq
		s.pq.push(event{at: t.at, seq: t.seq, kind: evTimer, timer: t})
	}
}

// Stop disarms the timer. Its queue entry, if any, is dropped when it comes
// up.
func (t *Timer) Stop() { t.armed = false }

// fireTimer handles the timer's queue entry keyed seq, which is the root.
func (s *Sim) fireTimer(t *Timer, seq uint64) {
	switch {
	case seq != t.qSeq: // stale: an earlier deadline replaced this entry
		s.pq.pop()
	case !t.armed:
		t.qSeq = 0
		s.pq.pop()
	case seq != t.seq:
		// Re-armed to a later deadline since this entry was queued: re-key
		// it to the (at, seq) that arming reserved.
		t.qAt, t.qSeq = t.at, t.seq
		s.pq.rekey(t.at, t.seq)
	default:
		t.qSeq = 0
		t.armed = false
		s.pq.pop()
		t.fn()
	}
}

// ICMPType marks control packets generated inside the network.
type ICMPType int

const (
	// ICMPNone marks a normal packet.
	ICMPNone ICMPType = iota
	// ICMPTimeExceeded is the TTL-expiry reply traceroute relies on.
	ICMPTimeExceeded
	// ICMPEchoReply answers an ICMPEcho probe (ping).
	ICMPEchoReply
	// ICMPEcho is a ping request.
	ICMPEcho
)

// Packet is the unit of transmission. Fields double as protocol headers for
// the simplified TCP/UDP/ICMP machinery built on top.
type Packet struct {
	ID   uint64
	Flow uint64 // flow identifier; 0 for bare probes
	Size int    // bytes on the wire

	Src, Dst string // node names
	SrcPort  int
	DstPort  int
	TTL      int // hop limit; decremented per node

	// Transport fields.
	Seq   int64 // first data byte carried (data) or sequence echo (ack)
	Ack   int64 // cumulative ack (next expected byte)
	IsAck bool
	// The receiver's out-of-order blocks above Ack, as a position in its
	// flow's SACK log (see cc.Flow): the log index where the ack's episode
	// starts, how many entries it covers, and the last entry's End when the
	// ack was sent. Real TCP caps SACK at 3-4 blocks per segment; the
	// simulation reports the full state, which approximates what a modern
	// SACK+RACK stack reconstructs across consecutive acks.
	SackFrom int
	SackLen  int
	SackEnd  int64
	SentAt   Time // stamped at first transmission; echoed back in acks

	// Rate-sampling fields (see cc package): the sender's delivered-bytes
	// counter and its timestamp at the moment this packet was sent.
	Delivered   int64
	DeliveredAt Time
	Retrans     bool // this packet is a retransmission

	// Control plane.
	ICMP     ICMPType
	ICMPFrom string // node that generated the ICMP reply
	ProbeID  uint64 // correlates probes with replies

	// While the packet is in flight on a link: its delivery key and the
	// packet behind it (see Link.enqueue). A packet is on one link at most.
	at   Time
	seq  uint64
	next *Packet

	freed bool // handed to FreePacket; a second free panics
}

// Handler consumes packets delivered by a link. Delivery hands the packet
// over: the link and node that delivered p do not touch it once Handle
// returns, except that a node answers an ICMPEcho request after its local
// handler, so a handler must not free one. A handler may keep p, or pass it
// to Sim.FreePacket once it holds the last reference. Packets that end
// inside the network — dropped, expired, unroutable or addressed to a port
// nobody listens on — are freed there, so a sender must not use a packet
// after handing it to Link.Send or Node.Handle.
type Handler interface {
	Handle(s *Sim, p *Packet)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(s *Sim, p *Packet)

// Handle implements Handler.
func (f HandlerFunc) Handle(s *Sim, p *Packet) { f(s, p) }

// LinkStats counts traffic through a link.
type LinkStats struct {
	SentPackets    int
	SentBytes      int64
	DroppedPackets int
	DroppedBytes   int64
	LossDropped    int // dropped by the loss process rather than the queue
}

// Link is a unidirectional store-and-forward link with an implicit drop-tail
// queue: the backlog is tracked as the time the transmitter remains busy, so
// queueing delay and occupancy need no explicit queue structure.
type Link struct {
	Name      string
	RateBps   float64 // transmission rate in bits/s; 0 means infinitely fast
	Delay     Time    // fixed propagation delay
	QueueByte int     // drop-tail threshold in bytes of backlog; 0 = unlimited

	// DelayFn, if set, returns extra one-way delay for a departure at the
	// given time (the bent pipe's geometry-driven term).
	DelayFn func(now Time) Time
	// LossFn, if set, reports whether the packet is lost at the given time
	// (the bent pipe's handover bursts). Loss is applied before queueing.
	// A lost packet is freed, so LossFn must not keep p.
	LossFn func(now Time, p *Packet) bool
	// RateFn, if set, overrides RateBps at the given time (weather or
	// diurnal capacity changes).
	RateFn func(now Time) float64

	Dst Handler

	// Metrics, if non-nil, mirrors the stats counters into an
	// obs.Registry (see NewLinkMetrics). Nil keeps the link unmetered.
	Metrics *LinkMetrics

	// Trace, if non-nil, receives a span event per dropped packet, stamped
	// with the simulated time and drop reason. The span's event cap bounds
	// the cost on lossy runs; nil keeps the drop path allocation-free.
	Trace *trace.Span

	busyUntil   Time
	lastArrival Time
	stats       LinkStats

	// Packets in flight, in arrival order, linked through Packet.next. Only
	// the head has a queue entry on sim; delivering the head re-keys that
	// entry to the next one.
	head, tail *Packet
	inflight   int
	sim        *Sim
}

// traceDrop records a packet drop on the link's trace span, if any.
func (l *Link) traceDrop(now Time, p *Packet, reason string) {
	if l.Trace == nil {
		return
	}
	l.Trace.Event("link.drop",
		trace.Str("link", l.Name),
		trace.Str("reason", reason),
		trace.Int("size", int64(p.Size)),
		trace.Str("sim_t", now.String()))
}

// Stats returns a copy of the link's counters.
func (l *Link) Stats() LinkStats { return l.stats }

// QueueDelay returns the current backlog ahead of a new arrival.
func (l *Link) QueueDelay(now Time) Time {
	if l.busyUntil <= now {
		return 0
	}
	return l.busyUntil - now
}

// rate returns the effective transmission rate at the given time.
func (l *Link) rate(now Time) float64 {
	if l.RateFn != nil {
		if r := l.RateFn(now); r > 0 {
			return r
		}
	}
	return l.RateBps
}

// Send transmits the packet over the link, applying loss, the drop-tail
// queue, serialisation delay, and propagation delay. Delivery is scheduled
// on the simulator. The link owns p from here: a dropped packet is freed, a
// delivered one handed to the destination handler.
func (l *Link) Send(s *Sim, p *Packet) {
	if l.Dst == nil {
		panic(fmt.Sprintf("netsim: link %q has no destination", l.Name))
	}
	if l.sim != s {
		l.adopt(s)
	}
	now := s.Now()
	if l.LossFn != nil && l.LossFn(now, p) {
		l.stats.DroppedPackets++
		l.stats.DroppedBytes += int64(p.Size)
		l.stats.LossDropped++
		l.Metrics.dropped(true)
		l.traceDrop(now, p, "loss")
		s.FreePacket(p)
		return
	}

	rate := l.rate(now)
	var txTime Time
	if rate > 0 {
		txTime = Time(float64(p.Size*8) / rate * float64(time.Second))
	}

	// Backlog in bytes implied by the busy period.
	if l.QueueByte > 0 && rate > 0 {
		backlog := int(l.QueueDelay(now).Seconds() * rate / 8)
		if backlog+p.Size > l.QueueByte {
			l.stats.DroppedPackets++
			l.stats.DroppedBytes += int64(p.Size)
			l.Metrics.dropped(false)
			l.traceDrop(now, p, "queue")
			s.FreePacket(p)
			return
		}
	}

	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	depart := start + txTime
	l.busyUntil = depart

	extra := Time(0)
	if l.DelayFn != nil {
		extra = l.DelayFn(now)
		if extra < 0 {
			extra = 0
		}
	}
	arrive := depart + l.Delay + extra
	// A FIFO link cannot reorder: a packet whose jitter draw would overtake
	// an earlier packet queues behind it instead.
	if arrive < l.lastArrival {
		arrive = l.lastArrival
	}
	l.lastArrival = arrive

	l.stats.SentPackets++
	l.stats.SentBytes += int64(p.Size)
	l.Metrics.sent(p.Size, depart-now)
	l.enqueue(s, arrive, p)
}

// adopt hands the link to s. Packets the previous run left in flight never
// arrive, as their events never ran, so that run stops counting them; only
// the head's queue entry stays, and it is dropped when it comes up. The
// link starts s idle: the old run's clock says nothing about the new one's.
func (l *Link) adopt(s *Sim) {
	if old := l.sim; old != nil && l.inflight > 1 {
		old.backlog -= l.inflight - 1
	}
	l.head, l.tail, l.inflight = nil, nil, 0
	l.busyUntil, l.lastArrival = 0, 0
	l.sim = s
}

// enqueue puts p in flight until at. The FIFO clamp above makes at
// non-decreasing along the list and seq always increases, so the list is
// sorted by (at, seq) and its head is the link's earliest event: queueing
// only the head, and the next one under its own key when the head fires,
// keeps the global event order exactly as if every packet were queued.
func (l *Link) enqueue(s *Sim, at Time, p *Packet) {
	if at < s.now {
		at = s.now
	}
	s.seq++
	p.at, p.seq = at, s.seq
	if l.head == nil {
		l.head = p
		s.pq.push(event{at: at, seq: s.seq, kind: evDeliver, link: l})
	} else {
		l.tail.next = p
		s.backlog++
	}
	l.tail = p
	l.inflight++
}

// deliver fires the link's entry keyed seq, which is the root: it re-keys
// the entry to the next head, or pops it after the last, then hands the
// head packet to the destination. An entry left behind by another run
// matches no head and is dropped.
func (l *Link) deliver(s *Sim, seq uint64) {
	p := l.head
	if l.sim != s || p == nil || p.seq != seq {
		s.pq.pop()
		return
	}
	l.head, p.next = p.next, nil
	l.inflight--
	if next := l.head; next != nil {
		s.pq.rekey(next.at, next.seq)
		s.backlog--
	} else {
		l.tail = nil
		s.pq.pop()
	}
	l.Dst.Handle(s, p)
}

// Node is a router/host. It forwards packets by destination name, decrements
// TTL and emits ICMP time-exceeded replies, and delivers packets addressed
// to itself to per-port local handlers.
type Node struct {
	Name string
	// HopAddr is the address string the node reveals in ICMP replies, e.g.
	// "ae29.londhx-sbr1.ja.net" in the paper's Figure 5.
	HopAddr string

	routes   []nextHop // scanned in order; a Path installs at most len(nodes)-1
	defRoute *Link
	locals   map[int]Handler // port -> endpoint

	// ICMPDelay simulates router control-plane processing time for ICMP
	// generation (often slower than forwarding).
	ICMPDelay Time
	// Mute suppresses the node's ICMP replies (time-exceeded and echo):
	// many production routers rate-limit or disable ICMP generation, which
	// is why real traceroutes show "*" hops.
	Mute bool
}

// nextHop is one routing-table entry: the next link towards dst.
type nextHop struct {
	dst  string
	link *Link
}

// NewNode creates a node. hopAddr may be empty, in which case the name is
// used in ICMP replies.
func NewNode(name, hopAddr string) *Node {
	if hopAddr == "" {
		hopAddr = name
	}
	return &Node{
		Name:    name,
		HopAddr: hopAddr,
		locals:  make(map[int]Handler),
	}
}

// AddRoute installs the next-hop link towards the destination node,
// replacing any route it had there.
func (n *Node) AddRoute(dst string, l *Link) {
	for i := range n.routes {
		if n.routes[i].dst == dst {
			n.routes[i].link = l
			return
		}
	}
	n.routes = append(n.routes, nextHop{dst: dst, link: l})
}

// SetDefaultRoute installs the link used when no specific route matches.
func (n *Node) SetDefaultRoute(l *Link) { n.defRoute = l }

// RegisterLocal attaches an endpoint handler to a local port.
func (n *Node) RegisterLocal(port int, h Handler) { n.locals[port] = h }

// UnregisterLocal detaches the endpoint at the port.
func (n *Node) UnregisterLocal(port int) { delete(n.locals, port) }

// route returns the link toward dst, or nil.
func (n *Node) route(dst string) *Link {
	for i := range n.routes {
		if n.routes[i].dst == dst {
			return n.routes[i].link
		}
	}
	return n.defRoute
}

// Handle implements Handler: local delivery, TTL handling, and forwarding.
func (n *Node) Handle(s *Sim, p *Packet) {
	if p.Dst == n.Name {
		echo := p.ICMP == ICMPEcho // read before the handler may free p
		h, listening := n.locals[p.DstPort]
		if listening {
			h.Handle(s, p)
		}
		if echo {
			n.replyEcho(s, p)
		}
		// Packets to unknown ports are silently dropped, as on a host with
		// no listener (probes to high ports rely on this, and so do packets
		// still in flight when a tool unregisters its port).
		if !listening {
			s.FreePacket(p)
		}
		return
	}

	// A node originating its own packet acts as a host, not a router: it
	// does not decrement the TTL it just set.
	if p.TTL > 0 && p.Src != n.Name {
		p.TTL--
		if p.TTL == 0 {
			n.replyTimeExceeded(s, p)
			s.FreePacket(p)
			return
		}
	}

	l := n.route(p.Dst)
	if l == nil {
		s.FreePacket(p) // no route: drop
		return
	}
	l.Send(s, p)
}

// replyTimeExceeded sends an ICMP time-exceeded message back to the source.
func (n *Node) replyTimeExceeded(s *Sim, orig *Packet) {
	back := n.route(orig.Src)
	if back == nil || n.Mute {
		return
	}
	reply := s.NewPacket()
	*reply = Packet{
		ID:       s.NextPacketID(),
		Size:     56, // ICMP time-exceeded with quoted header
		Src:      n.Name,
		Dst:      orig.Src,
		DstPort:  orig.SrcPort,
		TTL:      64,
		ICMP:     ICMPTimeExceeded,
		ICMPFrom: n.HopAddr,
		ProbeID:  orig.ProbeID,
		SentAt:   orig.SentAt,
	}
	s.sendAfter(n.ICMPDelay, back, reply)
}

// replyEcho answers a ping.
func (n *Node) replyEcho(s *Sim, orig *Packet) {
	back := n.route(orig.Src)
	if back == nil || n.Mute {
		return
	}
	reply := s.NewPacket()
	*reply = Packet{
		ID:       s.NextPacketID(),
		Size:     orig.Size,
		Src:      n.Name,
		Dst:      orig.Src,
		DstPort:  orig.SrcPort,
		TTL:      64,
		ICMP:     ICMPEchoReply,
		ICMPFrom: n.HopAddr,
		ProbeID:  orig.ProbeID,
		SentAt:   orig.SentAt,
	}
	s.sendAfter(n.ICMPDelay, back, reply)
}

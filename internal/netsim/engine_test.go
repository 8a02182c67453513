package netsim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
	"unsafe"
)

// refSim is the event engine the value-typed queue replaced, kept as the
// reference model: a container/heap of *refEvent, one closure per event.
type refSim struct {
	now Time
	seq uint64
	pq  refHeap
}

type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

func (s *refSim) schedule(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	s.seq++
	heap.Push(&s.pq, &refEvent{at: s.now + d, seq: s.seq, fn: fn})
}

func (s *refSim) run() {
	for len(s.pq) > 0 {
		e := heap.Pop(&s.pq).(*refEvent)
		s.now = e.at
		e.fn()
	}
}

// refTimer is the closure + epoch timer cc.Flow used for its RTO: every
// arming schedules a closure, and bumping the epoch disowns the old ones.
type refTimer struct {
	s     *refSim
	epoch uint64
	fn    func()
}

func (t *refTimer) reset(d Time) {
	t.epoch++
	epoch := t.epoch
	t.s.schedule(d, func() {
		if epoch == t.epoch {
			t.fn()
		}
	})
}

func (t *refTimer) stop() { t.epoch++ }

// firing is one callback run: when, and which timer or closure.
type firing struct {
	at Time
	id int
}

// timerScript drives one engine through a seeded random mix of timer
// re-arms, stops and closures. Every callback logs itself and then draws its
// next actions from rng, so two engines that fire identically draw
// identically; the first divergence changes everything after it.
type timerScript struct {
	rng     *rand.Rand
	budget  int // actions left
	log     []firing
	now     func() Time
	reset   func(timer int, d Time)
	stop    func(timer int)
	sched   func(d Time, id int)
	nTimers int
}

func (sc *timerScript) fired(id int) {
	sc.log = append(sc.log, firing{sc.now(), id})
	for k := 1 + sc.rng.Intn(4); k > 0 && sc.budget > 0; k-- {
		sc.budget--
		// Whole milliseconds, often zero, so deadlines and closures collide
		// and the seq tie-break decides.
		d := Time(sc.rng.Intn(6)) * time.Millisecond
		switch op := sc.rng.Intn(10); {
		case op < 4:
			sc.reset(sc.rng.Intn(sc.nTimers), d)
		case op < 5:
			sc.stop(sc.rng.Intn(sc.nTimers))
		default:
			sc.sched(d, 1000+sc.budget)
		}
	}
}

func runTimerScript(seed int64, useRef bool) []firing {
	sc := &timerScript{rng: rand.New(rand.NewSource(seed)), budget: 400, nTimers: 3}
	if useRef {
		s := &refSim{}
		timers := make([]*refTimer, sc.nTimers)
		for i := range timers {
			timers[i] = &refTimer{s: s, fn: func() { sc.fired(i) }}
		}
		sc.now = func() Time { return s.now }
		sc.reset = func(i int, d Time) { timers[i].reset(d) }
		sc.stop = func(i int) { timers[i].stop() }
		sc.sched = func(d Time, id int) { s.schedule(d, func() { sc.fired(id) }) }
		for id := -4; id < 0; id++ {
			sc.sched(0, id)
		}
		s.run()
		return sc.log
	}
	s := NewSim(1)
	timers := make([]*Timer, sc.nTimers)
	for i := range timers {
		timers[i] = s.NewTimer(func() { sc.fired(i) })
	}
	sc.now = s.Now
	sc.reset = func(i int, d Time) { s.ResetTimer(timers[i], d) }
	sc.stop = func(i int) { timers[i].Stop() }
	sc.sched = func(d Time, id int) { s.Schedule(d, func() { sc.fired(id) }) }
	for id := -4; id < 0; id++ {
		sc.sched(0, id)
	}
	s.Run()
	return sc.log
}

// TestTimerMatchesClosureReference: for random mixes of ResetTimer, Stop
// and Schedule, the lazy timer fires at exactly the (now, callback) sequence
// the closure + epoch scheme on the old container/heap engine does.
func TestTimerMatchesClosureReference(t *testing.T) {
	timerFirings := 0
	for seed := int64(1); seed <= 200; seed++ {
		want := runTimerScript(seed, true)
		got := runTimerScript(seed, false)
		if !slices.Equal(got, want) {
			n := 0
			for n < len(got) && n < len(want) && got[n] == want[n] {
				n++
			}
			t.Fatalf("seed %d: firing sequences diverge at %d of %d/%d: got %v, want %v",
				seed, n, len(got), len(want), got[n:min(n+5, len(got))], want[n:min(n+5, len(want))])
		}
		for _, f := range want {
			if f.id >= 0 && f.id < 3 {
				timerFirings++
			}
		}
	}
	if timerFirings < 1000 {
		t.Fatalf("only %d timer firings over 200 scripts; they are not exercising the timers", timerFirings)
	}
}

// trainScript drives a Sim through a seeded random mix of probe trains,
// closures, timer re-arms and link sends. As in timerScript, every callback
// logs itself and then draws its next actions, so the first divergence
// changes everything after it. With asCalls set, each train is built as n
// ScheduleAt calls instead, the way the probe loops were written before
// Train.
type trainScript struct {
	s       *Sim
	rng     *rand.Rand
	asCalls bool
	budget  int // actions left
	ids     int // last id handed out
	log     []firing
	pending []int // Pending() at each firing
	timers  []*Timer
	links   []*Link
	// Trains of each edge case started, so the test can check it covers them.
	single, equalTime, past int
}

func (sc *trainScript) fired(id int) {
	sc.log = append(sc.log, firing{sc.s.Now(), id})
	sc.pending = append(sc.pending, sc.s.Pending())
	for k := 1 + sc.rng.Intn(3); k > 0 && sc.budget > 0; k-- {
		sc.budget--
		sc.ids++
		id := sc.ids
		// Whole milliseconds, often zero, so that trains, closures, timers
		// and deliveries collide and the seq tie-break decides.
		d := Time(sc.rng.Intn(4)) * time.Millisecond
		switch op := sc.rng.Intn(10); {
		case op < 2:
			sc.s.ResetTimer(sc.timers[sc.rng.Intn(len(sc.timers))], d)
		case op < 4:
			sc.s.Schedule(d, func() { sc.fired(id) })
		case op < 6:
			l := sc.links[sc.rng.Intn(len(sc.links))]
			l.Send(sc.s, &Packet{ID: uint64(id), Size: 125 * (1 + sc.rng.Intn(8))})
		default:
			sc.train(id)
		}
	}
}

// train starts a train of 1–5 members whose ids run from first. Its start
// may lie up to 3 ms in the past, and a zero gap makes all its members due
// at once.
func (sc *trainScript) train(first int) {
	start := sc.s.Now() + Time(sc.rng.Intn(7)-3)*time.Millisecond
	gap := Time(sc.rng.Intn(3)) * time.Millisecond
	n := 1 + sc.rng.Intn(5)
	sc.ids += n - 1
	if n == 1 {
		sc.single++
	}
	if gap == 0 && n > 1 {
		sc.equalTime++
	}
	if start < sc.s.Now() {
		sc.past++
	}
	if !sc.asCalls {
		sc.s.Train(start, gap, n, func(i int) { sc.fired(first + i) })
		return
	}
	for i := 0; i < n; i++ {
		sc.s.ScheduleAt(start+Time(i)*gap, func() { sc.fired(first + i) })
	}
}

// runTrainScript returns the firing log, Pending() at each firing and the
// final seq counter.
func runTrainScript(seed int64, asCalls bool) *trainScript {
	s := NewSim(seed)
	sc := &trainScript{s: s, rng: rand.New(rand.NewSource(seed)), asCalls: asCalls, budget: 400}
	for i := 0; i < 2; i++ {
		sc.timers = append(sc.timers, s.NewTimer(func() { sc.fired(-1 - i) }))
	}
	sink := HandlerFunc(func(_ *Sim, p *Packet) { sc.fired(int(p.ID)) })
	for i := 0; i < 3; i++ {
		sc.links = append(sc.links, &Link{
			RateBps: float64(1+i) * 1e6,
			Delay:   Time(i) * time.Millisecond,
			DelayFn: func(Time) Time { return Time(sc.rng.Intn(2)) * time.Millisecond },
			Dst:     sink,
		})
	}
	for id := -10; id > -14; id-- {
		s.Schedule(0, func() { sc.fired(id) })
	}
	s.Run()
	return sc
}

// TestTrainMatchesScheduleReference: over random mixes of trains, closures,
// timer re-arms and link sends, a Train fires its members at exactly the
// (now, id) sequence that n ScheduleAt calls give, Pending() agrees at every
// firing, and the seq counter ends where it did, so no other event's key
// moved.
func TestTrainMatchesScheduleReference(t *testing.T) {
	var single, equalTime, past int
	for seed := int64(1); seed <= 200; seed++ {
		want := runTrainScript(seed, true)
		got := runTrainScript(seed, false)
		if !slices.Equal(got.log, want.log) {
			n := 0
			for n < len(got.log) && n < len(want.log) && got.log[n] == want.log[n] {
				n++
			}
			t.Fatalf("seed %d: firing sequences diverge at %d of %d/%d: got %v, want %v", seed, n,
				len(got.log), len(want.log), got.log[n:min(n+5, len(got.log))], want.log[n:min(n+5, len(want.log))])
		}
		if !slices.Equal(got.pending, want.pending) {
			t.Fatalf("seed %d: Pending() per firing = %v, want %v", seed, got.pending, want.pending)
		}
		if got.s.seq != want.s.seq {
			t.Fatalf("seed %d: seq counter ends at %d, want %d", seed, got.s.seq, want.s.seq)
		}
		single += got.single
		equalTime += got.equalTime
		past += got.past
	}
	if single < 200 || equalTime < 200 || past < 200 {
		t.Fatalf("over 200 scripts: %d single-member trains, %d equal-time trains, %d starting in the past; "+
			"the scripts are not exercising the edge cases", single, equalTime, past)
	}
}

// TestTrainPendingAndGap: Pending counts the members of a train that have
// not fired though the train has one queue entry, and a negative gap panics.
func TestTrainPendingAndGap(t *testing.T) {
	s := NewSim(1)
	var fired []Time
	s.Train(0, time.Millisecond, 5, func(int) { fired = append(fired, s.Now()) }) // 0..4 ms
	s.Schedule(10*time.Millisecond, func() {})
	if got := s.Pending(); got != 6 {
		t.Fatalf("pending = %d, want 6 (5 members + 1 closure)", got)
	}
	s.RunUntil(2 * time.Millisecond)
	if got := s.Pending(); got != 3 {
		t.Fatalf("pending at 2ms = %d, want 3 (members at 3 and 4 ms + the closure)", got)
	}
	s.Run()
	if got := s.Pending(); got != 0 || len(fired) != 5 {
		t.Fatalf("after Run: pending = %d, %d members fired; want 0 and 5", got, len(fired))
	}
	defer func() {
		if recover() == nil {
			t.Error("negative gap did not panic")
		}
	}()
	s.Train(s.Now(), -time.Millisecond, 2, func(int) {})
}

// TestTimerStopAndRearm covers the timer's edge cases directly: a stopped
// timer does not fire, re-arming later moves the deadline, re-arming earlier
// fires early and exactly once.
func TestTimerStopAndRearm(t *testing.T) {
	s := NewSim(1)
	var fired []Time
	tm := s.NewTimer(func() { fired = append(fired, s.Now()) })

	s.ResetTimer(tm, 10*time.Millisecond)
	tm.Stop()
	s.Run()
	if len(fired) != 0 {
		t.Fatalf("stopped timer fired at %v", fired)
	}

	s.ResetTimer(tm, 10*time.Millisecond)
	s.ResetTimer(tm, 30*time.Millisecond) // later: the entry is re-keyed
	s.Run()
	if want := []Time{40 * time.Millisecond}; !slices.Equal(fired, want) {
		t.Fatalf("later re-arm fired at %v, want %v", fired, want)
	}

	fired = nil
	s.ResetTimer(tm, 30*time.Millisecond)
	s.ResetTimer(tm, 5*time.Millisecond) // earlier: a new entry, the old one goes stale
	s.Run()
	if want := []Time{45 * time.Millisecond}; !slices.Equal(fired, want) {
		t.Fatalf("earlier re-arm fired at %v, want %v", fired, want)
	}

	// Re-arming from inside the callback, as an RTO does.
	fired = nil
	n := 0
	var rto *Timer
	rto = s.NewTimer(func() {
		fired = append(fired, s.Now())
		if n++; n < 3 {
			s.ResetTimer(rto, time.Millisecond)
		}
	})
	s.ResetTimer(rto, time.Millisecond)
	s.Run()
	if len(fired) != 3 || fired[2]-fired[0] != 2*time.Millisecond {
		t.Fatalf("self re-arming timer fired at %v", fired)
	}
}

// TestEqualTimeDeliveriesInSeqOrder: packets on different links that arrive
// at the same instant are delivered in the order they were sent, interleaved
// with same-instant closures in the order those were scheduled — the (at,
// seq) order one event per packet gave, although each link queues only its
// head.
func TestEqualTimeDeliveriesInSeqOrder(t *testing.T) {
	s := NewSim(1)
	var got []string
	sink := HandlerFunc(func(s *Sim, p *Packet) { got = append(got, fmt.Sprintf("pkt%d", p.ID)) })
	a := &Link{Name: "a", Delay: 10 * time.Millisecond, Dst: sink}
	b := &Link{Name: "b", Delay: 10 * time.Millisecond, Dst: sink}
	a.Send(s, &Packet{ID: 1})
	b.Send(s, &Packet{ID: 2})
	s.Schedule(10*time.Millisecond, func() { got = append(got, "fn") })
	a.Send(s, &Packet{ID: 3})
	b.Send(s, &Packet{ID: 4})
	a.Send(s, &Packet{ID: 5})
	s.Run()
	want := []string{"pkt1", "pkt2", "fn", "pkt3", "pkt4", "pkt5"}
	if !slices.Equal(got, want) {
		t.Fatalf("delivery order %v, want %v", got, want)
	}
}

// TestEventSize: every sift moves events by value, so an event must not
// grow past the 56 bytes it has on 64-bit platforms.
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n > 56 {
		t.Fatalf("event is %d bytes, want at most 56", n)
	}
}

// TestPendingCountsPacketsInFlight: Pending counts every packet in flight on
// a link, though only the link's head has a queue entry.
func TestPendingCountsPacketsInFlight(t *testing.T) {
	s := NewSim(1)
	l := &Link{RateBps: 8e6, Delay: 5 * time.Millisecond, Dst: &collector{}}
	for i := 0; i < 5; i++ {
		l.Send(s, &Packet{Size: 1000}) // arrivals at 6, 7, 8, 9, 10 ms
	}
	s.Schedule(time.Millisecond, func() {})
	if got := s.Pending(); got != 6 {
		t.Fatalf("pending = %d, want 6 (5 in flight + 1 closure)", got)
	}
	s.RunUntil(7 * time.Millisecond)
	if got := s.Pending(); got != 3 {
		t.Fatalf("pending at 7ms = %d, want 3", got)
	}
	s.Run()
	if got := s.Pending(); got != 0 {
		t.Fatalf("pending after Run = %d, want 0", got)
	}
}

// TestLinkReusedByFreshSim: a link that a new or renewed Sim sends on
// starts idle, not busy until the abandoned run's clock, and delivers none
// of the packets that run left in flight there; a new Sim's abandoned run
// also stops counting them. (A renewed Sim's old one must not be used.)
func TestLinkReusedByFreshSim(t *testing.T) {
	for _, renew := range []bool{false, true} {
		t.Run(map[bool]string{false: "new", true: "renewed"}[renew], func(t *testing.T) {
			c := &collector{}
			l := &Link{RateBps: 8e6, Delay: 5 * time.Millisecond, Dst: c}
			old := NewSim(1)
			old.RunUntil(10 * time.Second)
			for i := 0; i < 3; i++ {
				l.Send(old, &Packet{Size: 1000}) // arrivals at 10.006, 10.007, 10.008 s
			}

			var s *Sim
			if renew {
				s = old.Renew(2)
			} else {
				s = NewSim(2)
			}
			l.Send(s, &Packet{Size: 1000})
			// The old run keeps the head's queue entry until it comes up.
			if !renew && old.Pending() != 1 {
				t.Errorf("abandoned run's Pending() = %d, want 1", old.Pending())
			}
			s.Run()
			if want := 6 * time.Millisecond; len(c.times) != 1 || c.times[0] != want {
				t.Fatalf("fresh run delivered at %v, want [%v]", c.times, want)
			}
			if renew {
				return
			}
			old.Run()
			if len(c.times) != 1 || old.Pending() != 0 {
				t.Fatalf("abandoned run delivered %d packets and has %d pending; want none of either",
					len(c.times)-1, old.Pending())
			}
		})
	}
}

// renewScript drives s over links a and b and logs, with the (now, seq) at
// which it happens, every delivery, timer and train firing and rng draw:
// packets of drawn sizes back to back on both links, a timer re-armed
// earlier and then later, a train whose members send on a, and a closure
// that draws. Packet IDs start above base. It returns the timer.
func renewScript(s *Sim, a, b *Link, base uint64, log *[]string) *Timer {
	rec := func(what string, v int64) {
		*log = append(*log, fmt.Sprintf("%v #%d %s %d", s.now, s.seq, what, v))
	}
	sink := HandlerFunc(func(s *Sim, p *Packet) {
		rec("deliver", int64(p.ID))
		s.FreePacket(p)
	})
	a.Dst, b.Dst = sink, sink
	send := func(l *Link) {
		p := s.NewPacket()
		p.ID, p.Size = base+s.NextPacketID(), 250*(1+s.Rand().Intn(6))
		l.Send(s, p)
	}
	for i := 0; i < 4; i++ {
		send(a)
		send(b)
	}
	tm := s.NewTimer(func() { rec("timer", 0) })
	s.ResetTimer(tm, 30*time.Millisecond)
	s.ResetTimer(tm, 20*time.Millisecond)
	s.Train(5*time.Millisecond, 3*time.Millisecond, 5, func(i int) {
		rec("train", int64(i))
		send(a)
	})
	s.Schedule(7*time.Millisecond, func() {
		rec("draw", s.Rand().Int63())
		s.ResetTimer(tm, 25*time.Millisecond)
	})
	return tm
}

// TestRenewMatchesNewSim: a Sim renewed after it stopped with packets in
// flight on both links, its timer armed and its train part-way runs the
// same script exactly as NewSim(seed) does, firing for firing and draw for
// draw, on the links the stopped run left its packets on, and delivers
// none of those packets. The renewed Sim is a new one, so the stopped run's
// links see another simulator.
func TestRenewMatchesNewSim(t *testing.T) {
	newLinks := func() (*Link, *Link) {
		return &Link{Name: "a", RateBps: 8e6, Delay: 5 * time.Millisecond},
			&Link{Name: "b", RateBps: 4e6, Delay: 3 * time.Millisecond}
	}
	for seed := int64(1); seed <= 10; seed++ {
		var want []string
		fresh := NewSim(seed)
		fa, fb := newLinks()
		renewScript(fresh, fa, fb, 0, &want)
		fresh.Run()
		want = append(want, fmt.Sprint("after ", fresh.Rand().Int63()))

		var stale []string
		old := NewSim(seed + 100)
		a, b := newLinks()
		tm := renewScript(old, a, b, 1000, &stale)
		old.Schedule(9*time.Millisecond, old.Stop) // train members 2-4 still due
		old.Run()
		if a.inflight == 0 || !tm.armed || old.Pending() <= a.inflight+b.inflight {
			t.Fatalf("seed %d: stopped run has %d in flight on a, timer armed %v, %d pending: want all three",
				seed, a.inflight, tm.armed, old.Pending())
		}
		free := len(old.free)

		s := old.Renew(seed)
		if s == old {
			t.Fatalf("seed %d: Renew returned the same Sim", seed)
		}
		if s.Now() != 0 || s.Pending() != 0 || len(s.free) != free {
			t.Fatalf("seed %d: renewed Sim at %v with %d pending and %d free packets, want 0, 0 and %d",
				seed, s.Now(), s.Pending(), len(s.free), free)
		}
		var got []string
		renewScript(s, a, b, 0, &got)
		s.Run()
		got = append(got, fmt.Sprint("after ", s.Rand().Int63()))
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: renewed run\n%v\nwant\n%v", seed, got, want)
		}
	}
}

// fillPacket sets every exported field of p to a non-zero value. A field of
// a kind it does not know fails the test, so a field added to Packet later
// gets filled here too.
func fillPacket(t *testing.T, p *Packet) {
	t.Helper()
	v := reflect.ValueOf(p).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		if !v.Type().Field(i).IsExported() {
			continue
		}
		switch {
		case f.CanInt():
			f.SetInt(int64(i + 1))
		case f.CanUint():
			f.SetUint(uint64(i + 1))
		case f.Kind() == reflect.Bool:
			f.SetBool(true)
		case f.Kind() == reflect.String:
			f.SetString(fmt.Sprintf("field-%d", i))
		default:
			t.Fatalf("fillPacket does not know how to fill Packet.%s (%s)", name, f.Type())
		}
		if f.IsZero() {
			t.Fatalf("fillPacket left Packet.%s zero", name)
		}
	}
}

// zeroApartFromFreed reports the first field of p, other than freed, that
// is not zero.
func zeroApartFromFreed(p *Packet) (string, bool) {
	v := reflect.ValueOf(p).Elem()
	for i := 0; i < v.NumField(); i++ {
		if name := v.Type().Field(i).Name; name != "freed" && !v.Field(i).IsZero() {
			return name, false
		}
	}
	return "", true
}

// TestPacketRecycling: FreePacket hands a packet back, NewPacket reuses it
// zeroed, and a double free panics. The packet is checked field by field,
// whatever fields Packet has (the SACK log position included): the
// transport fills recycled packets in place and relies on every field it
// does not set being zero.
func TestPacketRecycling(t *testing.T) {
	s := NewSim(1)
	p := s.NewPacket()
	fillPacket(t, p)
	s.FreePacket(p)
	if name, ok := zeroApartFromFreed(p); !ok || !p.freed {
		t.Fatalf("freed packet: field %s not zero or freed=%v: %+v", name, p.freed, p)
	}
	q := s.NewPacket()
	if q != p {
		t.Fatalf("NewPacket = %p, want the freed packet %p", q, p)
	}
	if !reflect.DeepEqual(*q, Packet{}) {
		t.Fatalf("recycled packet %+v, want Packet{}", q)
	}
	s.FreePacket(p)
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic")
		}
	}()
	s.FreePacket(p)
}

// TestNetworkFreesPacketsItEnds: packets dropped by a link or addressed to
// a port nobody listens on go back to the Sim, and the free-list never holds
// more packets than NewPacket made — so a caller that builds its own
// packets and loses many (a UDP blast) cannot grow it.
func TestNetworkFreesPacketsItEnds(t *testing.T) {
	s := NewSim(1)
	host := NewNode("host", "")
	lossy := &Link{Dst: host, LossFn: func(Time, *Packet) bool { return true }}
	for i := 0; i < 100; i++ {
		lossy.Send(s, &Packet{Dst: "host"})
	}
	if len(s.free) != 0 {
		t.Fatalf("free-list holds %d caller-built packets; NewPacket made none", len(s.free))
	}

	made := []*Packet{s.NewPacket(), s.NewPacket(), s.NewPacket()}
	lossy.Send(s, made[0])
	made[1].Dst, made[1].DstPort = "host", 9 // nobody listens on port 9
	host.Handle(s, made[1])
	made[2].Dst = "elsewhere" // no route
	host.Handle(s, made[2])
	for i, p := range made {
		if !p.freed {
			t.Errorf("packet %d was not freed", i)
		}
	}
	for i := 0; i < 100; i++ {
		lossy.Send(s, &Packet{Dst: "host"})
	}
	if len(s.free) != len(made) {
		t.Fatalf("free-list holds %d packets, want %d (what NewPacket made)", len(s.free), len(made))
	}
}

package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// hopKey is an event's place in the firing order.
type hopKey struct {
	at  Time
	seq uint64
}

func (k hopKey) before(o hopKey) bool {
	return k.at < o.at || (k.at == o.at && k.seq < o.seq)
}

// unknownAt marks a live event whose firing time the script does not
// compute: a link delivery or a delayed send.
const unknownAt Time = -1

// hopRun is one Sim's side of a hop script: its firings so far and a model
// of what its queue still holds, from which Pending() is predicted.
type hopRun struct {
	s    *Sim
	path bool   // the run may send across the Path
	last hopKey // the last firing; seqs start at 1, so the zero key is before any
	// live maps each created event that must still fire to its due time, or
	// unknownAt. Every seq the Sim hands out is an event; seen is the last
	// one entered here.
	live   map[uint64]Time
	seen   uint64
	timers []*hopTimer
	// stale keys the queue entries of link heads another Sim abandoned;
	// each is dropped when it comes up. held is what else Pending() still
	// counts for abandoned packets, as measured when they were abandoned.
	stale []hopKey
	held  int
}

// sync enters every seq the Sim has handed out since the last call as a
// live event.
func (r *hopRun) sync() {
	for ; r.seen < r.s.seq; r.seen++ {
		r.live[r.seen+1] = unknownAt
	}
}

// advance drops the modelled queue entries keyed before k: they have come up
// by the time an event keyed k fires.
func (r *hopRun) advance(k hopKey) error {
	kept := r.stale[:0]
	for _, e := range r.stale {
		if !e.before(k) {
			kept = append(kept, e)
		}
	}
	r.stale = kept
	for _, ht := range r.timers {
		if err := ht.advance(k); err != nil {
			return err
		}
	}
	return nil
}

// expected is what Pending() should return: the live events plus the
// entries that will be dropped when they come up.
func (r *hopRun) expected() int {
	n := len(r.live) + len(r.stale) + r.held
	for _, ht := range r.timers {
		n += len(ht.entries)
		if ht.armed {
			n-- // the armed timer's live entry stands for its arming
		}
	}
	return n
}

// hopTimer is a Timer with a model of its queue entries, following the
// rules ResetTimer and the entry's firing document.
type hopTimer struct {
	t       *Timer
	armed   bool
	arm     hopKey // the current arming
	entries []hopKey
	q       hopKey // the live entry, if hasQ
	hasQ    bool
}

// advance runs the timer's entries keyed before k as the Sim does when they
// come up: a stale or disarmed entry is dropped, an early one re-keyed to
// the current arming.
func (ht *hopTimer) advance(k hopKey) error {
	for {
		i := -1
		for j, e := range ht.entries {
			if e.before(k) && (i < 0 || e.before(ht.entries[i])) {
				i = j
			}
		}
		if i < 0 {
			return nil
		}
		e := ht.entries[i]
		ht.entries = append(ht.entries[:i], ht.entries[i+1:]...)
		switch {
		case !ht.hasQ || e != ht.q:
		case !ht.armed:
			ht.hasQ = false
		case e != ht.arm:
			ht.q = ht.arm
			ht.entries = append(ht.entries, ht.arm)
		default:
			return fmt.Errorf("timer armed for %v did not fire before %v", e, k)
		}
	}
}

// hopScript drives a Sim through a mix of closures, probe trains, timer
// re-arms earlier and later, and sends on jittery links whose sinks forward
// a share of what they receive onto another link. Across a four-node Path
// it sends TTL-limited probes, which expire at the routers, and pings, whose
// time-exceeded and echo replies leave their node after an ICMP delay. With
// reuse set, a second Sim sends on some of the first one's links halfway
// through, runs a little, and is abandoned; the first one keeps running.
//
// Every firing is checked when it happens: it comes after the previous one
// in (at, seq) order, its event is live and fires once, at its due time
// where the script knows it, and Pending() equals the model's count. Each
// packet carries the seq of its next event in ProbeID: whoever hands it to
// the engine sets ProbeID to the seq the engine will take next, and a
// node's ICMP reply copies it.
type hopScript struct {
	pick   func(n int) (int, bool)
	budget int // actions left
	err    error
	depth  int  // test callbacks on the stack
	cur    *Sim // the Sim being stepped
	runs   map[*Sim]*hopRun
	links  []*Link
	path   *Path
	// Edge cases reached, so the test can check the scripts cover them.
	forwarded, expired, echoed, trains   int
	earlier, later, takeovers, abandoned int
	sendsFired, staleDropped             int
}

// draw returns a value in [0, n). When the script's source runs out it
// returns 0 and ends the script's actions.
func (sc *hopScript) draw(n int) int {
	v, ok := sc.pick(n)
	if !ok {
		sc.budget = 0
	}
	return v
}

func (sc *hopScript) fail(format string, args ...any) {
	if sc.err == nil {
		sc.err = fmt.Errorf(format, args...)
	}
}

// fire checks the firing of the event keyed k on s. ht is the timer that
// fired, if one did.
func (sc *hopScript) fire(s *Sim, k hopKey, ht *hopTimer) {
	r := sc.runs[s]
	r.sync()
	if !r.last.before(k) {
		sc.fail("event (%v, #%d) fired after (%v, #%d)", k.at, k.seq, r.last.at, r.last.seq)
	}
	r.last = k
	due, ok := r.live[k.seq]
	switch {
	case !ok:
		sc.fail("event (%v, #%d) fired but is not live: it fired before, or was cancelled", k.at, k.seq)
	case due != unknownAt && due != k.at:
		sc.fail("event #%d fired at %v, due at %v", k.seq, k.at, due)
	}
	delete(r.live, k.seq)
	nStale := len(r.stale)
	if err := r.advance(k); err != nil {
		sc.fail("at (%v, #%d): %v", k.at, k.seq, err)
	}
	sc.staleDropped += nStale - len(r.stale)
	if ht != nil {
		if !ht.hasQ || ht.q != k {
			sc.fail("timer fired at (%v, #%d) without a live entry so keyed", k.at, k.seq)
		}
		for i, e := range ht.entries {
			if e == k {
				ht.entries = append(ht.entries[:i], ht.entries[i+1:]...)
				break
			}
		}
		ht.hasQ, ht.armed = false, false
	}
	if got, want := s.Pending(), r.expected(); got != want {
		sc.fail("Pending() = %d at (%v, #%d), want %d", got, k.at, k.seq, want)
	}
}

// call runs fn as a test callback.
func (sc *hopScript) call(fn func()) {
	sc.depth++
	fn()
	sc.depth--
}

// wrap puts a check of the firing in front of a link's destination.
func (sc *hopScript) wrap(h Handler) Handler {
	return HandlerFunc(func(s *Sim, p *Packet) {
		sc.call(func() {
			sc.fire(s, hopKey{s.Now(), p.ProbeID}, nil)
			p.ProbeID = s.seq + 1
			h.Handle(s, p)
		})
	})
}

// lossFn is every link's LossFn. Outside any test callback, Send runs
// because a node's delayed ICMP reply fired, so that firing is checked
// here. It drops one packet in 16.
func (sc *hopScript) lossFn(now Time, p *Packet) bool {
	if sc.depth == 0 {
		sc.sendsFired++
		sc.fire(sc.cur, hopKey{now, p.ProbeID}, nil)
		p.ProbeID = sc.cur.seq + 1
	}
	return sc.draw(16) == 0
}

// send sends p on l from s and records the in-flight packets of another Sim
// that the send abandons.
func (sc *hopScript) send(s *Sim, l *Link, p *Packet) {
	old := sc.runs[l.sim]
	var abandoned []hopKey
	if old != nil && l.sim != s {
		for f := l.head; f != nil; f = f.next {
			abandoned = append(abandoned, hopKey{f.at, f.seq})
		}
	}
	p.ProbeID = s.seq + 1
	l.Send(s, p)
	if old == nil || old.s == s || l.sim != s {
		return
	}
	sc.takeovers++
	old.sync()
	for _, f := range abandoned {
		delete(old.live, f.seq)
	}
	if len(abandoned) > 0 {
		sc.abandoned += len(abandoned)
		old.stale = append(old.stale, abandoned[0])
		old.held += old.s.Pending() - old.expected()
	}
}

// act takes up to two actions on s.
func (sc *hopScript) act(s *Sim) {
	r := sc.runs[s]
	for k := sc.draw(3); k > 0 && sc.budget > 0; k-- {
		sc.budget--
		d := Time(sc.draw(4)) * time.Millisecond
		ops := 9
		if r.path {
			ops = 12
		}
		switch op := sc.draw(ops); {
		case op < 2:
			sc.reset(r, r.timers[sc.draw(len(r.timers))], d)
		case op < 3:
			ht := r.timers[sc.draw(len(r.timers))]
			if ht.armed {
				r.sync()
				delete(r.live, ht.arm.seq)
			}
			ht.armed = false
			ht.t.Stop()
		case op < 5:
			var id uint64
			s.Schedule(d, func() { sc.call(func() { sc.fire(s, hopKey{s.now, id}, nil); sc.act(s) }) })
			r.sync()
			id = s.seq
			r.live[id] = s.now + d
		case op < 7:
			sc.send(s, sc.links[sc.draw(len(sc.links))], &Packet{Size: 125 * (1 + sc.draw(8))})
		case op < 9:
			sc.train(s)
		default:
			sc.probe(s)
		}
	}
}

// reset re-arms a timer to d from now.
func (sc *hopScript) reset(r *hopRun, ht *hopTimer, d Time) {
	r.sync()
	if ht.armed {
		delete(r.live, ht.arm.seq)
	}
	at := r.s.now + d
	if ht.hasQ {
		if ht.q.at > at {
			sc.earlier++
		} else {
			sc.later++
		}
	}
	r.s.ResetTimer(ht.t, d)
	r.sync()
	ht.armed, ht.arm = true, hopKey{at, r.s.seq}
	r.live[ht.arm.seq] = at
	if !ht.hasQ || ht.q.at > at {
		ht.q, ht.hasQ = ht.arm, true
		ht.entries = append(ht.entries, ht.arm)
	}
}

// train starts a train of 1–5 members; its start may lie in the past and
// its gap may be zero.
func (sc *hopScript) train(s *Sim) {
	start := s.now + Time(sc.draw(7)-3)*time.Millisecond
	gap := Time(sc.draw(3)) * time.Millisecond
	n := 1 + sc.draw(5)
	r := sc.runs[s]
	r.sync()
	base := s.seq + 1
	s.Train(start, gap, n, func(i int) {
		sc.call(func() { sc.fire(s, hopKey{s.now, base + uint64(i)}, nil); sc.act(s) })
	})
	r.sync()
	for i := 0; i < n; i++ {
		r.live[base+uint64(i)] = max(start+Time(i)*gap, s.now)
	}
	sc.trains++
}

// probe sends a packet across the Path: a probe whose TTL may expire at
// either router, a ping, or data from the server back to the client.
func (sc *hopScript) probe(s *Sim) {
	c, srv := sc.path.Client(), sc.path.Server()
	p := &Packet{Size: 64, Src: c.Name, Dst: srv.Name, SrcPort: 7, DstPort: 9}
	from := c
	switch sc.draw(4) {
	case 0:
		p.TTL = 1 + sc.draw(3)
	case 1:
		p.TTL, p.ICMP = 64, ICMPEcho
	case 2:
		p.Src, p.Dst, p.SrcPort, p.DstPort, from = srv.Name, c.Name, 9, 7, srv
	}
	p.ProbeID = s.seq + 1
	from.Handle(s, p)
}

// runHopScript runs one script of at most budget actions to its end. It
// returns the script with its first failure, if any, in err.
func runHopScript(pick func(n int) (int, bool), budget int, reuse bool) *hopScript {
	sc := &hopScript{pick: pick, budget: budget, runs: map[*Sim]*hopRun{}}
	newRun := func(s *Sim, path bool) *hopRun {
		r := &hopRun{s: s, path: path, live: map[uint64]Time{}}
		for i := 0; i < 2; i++ {
			ht := &hopTimer{}
			ht.t = s.NewTimer(func() { sc.call(func() { sc.fire(s, hopKey{s.now, ht.arm.seq}, ht); sc.act(s) }) })
			r.timers = append(r.timers, ht)
		}
		sc.runs[s] = r
		return r
	}
	jitter := func(Time) Time { return Time(sc.draw(3)) * time.Millisecond }
	sink := HandlerFunc(func(s *Sim, p *Packet) {
		if sc.draw(3) == 0 && sc.budget > 0 {
			sc.budget--
			sc.forwarded++
			sc.send(s, sc.links[sc.draw(len(sc.links))], p)
			return
		}
		sc.act(s)
	})
	for i := 0; i < 3; i++ {
		sc.links = append(sc.links, &Link{
			Name:    fmt.Sprintf("l%d", i),
			RateBps: float64(1+sc.draw(4)) * 1e6,
			Delay:   Time(sc.draw(3)) * time.Millisecond,
			DelayFn: jitter,
			LossFn:  sc.lossFn,
			Dst:     sc.wrap(sink),
		})
	}
	nodes := []*Node{NewNode("c", ""), NewNode("r1", ""), NewNode("r2", ""), NewNode("srv", "")}
	specs := make([]LinkSpec, len(nodes)-1)
	for i := range specs {
		nodes[i+1].ICMPDelay = Time(sc.draw(3)) * time.Millisecond
		specs[i] = LinkSpec{
			RateBps: float64(1+sc.draw(8)) * 1e6,
			Delay:   Time(1+sc.draw(3)) * time.Millisecond,
			DelayFn: jitter,
			LossFn:  sc.lossFn,
		}
	}
	path, err := NewPath(nodes, specs, nil)
	if err != nil {
		sc.err = err
		return sc
	}
	for _, l := range append(path.Fwd, path.Rev...) {
		l.Dst = sc.wrap(l.Dst)
	}
	sc.path = path
	nodes[0].RegisterLocal(7, HandlerFunc(func(s *Sim, p *Packet) {
		switch p.ICMP {
		case ICMPTimeExceeded:
			sc.expired++
		case ICMPEchoReply:
			sc.echoed++
		}
		sc.act(s)
	}))
	nodes[3].RegisterLocal(9, HandlerFunc(func(s *Sim, p *Packet) {
		sc.act(s)
		p.ProbeID = s.seq + 1 // the echo reply's send is the next event
	}))

	s := NewSim(1)
	r := newRun(s, true)
	sc.cur = s
	sc.call(func() { sc.act(s) })
	reused := !reuse
	for sc.budget > 0 && sc.err == nil {
		if !reused && sc.budget < budget/2 {
			// A second run takes over links while the first has packets on
			// them, runs a little, and is dropped.
			reused = true
			s2 := NewSim(2)
			newRun(s2, false)
			sc.cur = s2
			for i := 0; i < 4; i++ {
				sc.call(func() { sc.act(s2) })
			}
			s2.RunUntil(Time(sc.draw(10)) * time.Millisecond)
			sc.cur = s
		}
		s.RunUntil(s.now + Time(sc.draw(5))*time.Millisecond)
		// Every entry due by now has come up, though no firing showed it.
		if err := r.advance(hopKey{s.now, s.seq + 1}); err != nil {
			sc.fail("at %v: %v", s.now, err)
		}
		sc.call(func() { sc.act(s) })
	}
	s.Run()
	if sc.err != nil {
		return sc
	}
	r.sync()
	if len(r.live) > 0 {
		sc.fail("%d events never fired", len(r.live))
	}
	if err := r.advance(hopKey{math.MaxInt64, math.MaxUint64}); err != nil {
		sc.fail("after the run: %v", err)
	}
	if got, want := s.Pending(), r.expected(); got != want {
		sc.fail("Pending() = %d after the run, want %d", got, want)
	}
	return sc
}

// TestDeliveriesFollowAtSeqOrder: across sends on jittery links that sinks
// forward onward, probes and pings over a multi-hop Path with their delayed
// ICMP replies, probe trains, timers re-armed earlier and later, and — on
// every tenth seed — links a second Sim took over, every event fires in
// (time, creation order), which is the order the reference engine's
// one-event-per-packet heap gives; each event fires exactly once, and
// Pending() after every firing counts what is left.
func TestDeliveriesFollowAtSeqOrder(t *testing.T) {
	var total hopScript
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sc := runHopScript(func(n int) (int, bool) { return rng.Intn(n), true }, 400, seed%10 == 0)
		if sc.err != nil {
			t.Fatalf("seed %d: %v", seed, sc.err)
		}
		total.forwarded += sc.forwarded
		total.expired += sc.expired
		total.echoed += sc.echoed
		total.trains += sc.trains
		total.earlier += sc.earlier
		total.later += sc.later
		total.sendsFired += sc.sendsFired
		total.takeovers += sc.takeovers
		total.abandoned += sc.abandoned
		total.staleDropped += sc.staleDropped
	}
	t.Logf("over 200 scripts: %d forwarded, %d time-exceeded and %d echo replies (%d delayed sends), "+
		"%d trains, %d timers re-armed earlier and %d later, %d link takeovers abandoning %d packets, %d stale heads dropped",
		total.forwarded, total.expired, total.echoed, total.sendsFired, total.trains, total.earlier, total.later,
		total.takeovers, total.abandoned, total.staleDropped)
	if total.forwarded < 1000 || total.expired < 200 || total.echoed < 200 || total.trains < 1000 ||
		total.earlier < 200 || total.later < 200 || total.abandoned < 20 || total.staleDropped < 10 {
		t.Fatal("the scripts are not exercising the edge cases")
	}
}

// FuzzDeliveriesFollowAtSeqOrder drives the same script runner from fuzz
// bytes: the first byte chooses whether a second Sim takes over links, and
// each byte after it one draw. The seeds are short because the fuzzer
// minimizes every input that finds new coverage before it goes on, and that
// takes time in proportion to the input's length.
func FuzzDeliveriesFollowAtSeqOrder(f *testing.F) {
	for seed := int64(1); seed <= 2; seed++ {
		b := make([]byte, 256)
		rand.New(rand.NewSource(seed)).Read(b)
		b[0] = byte(seed - 1)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		reuse := script[0]&1 == 1
		script = script[1:]
		pick := func(n int) (int, bool) {
			if len(script) == 0 {
				return 0, false
			}
			v := int(script[0]) % n
			script = script[1:]
			return v, true
		}
		// A script's actions take about four draws each.
		if sc := runHopScript(pick, len(script)/4, reuse); sc.err != nil {
			t.Fatal(sc.err)
		}
	})
}

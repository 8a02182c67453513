package cc

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"starlinkview/internal/netsim"
)

// scanSet is the range list as the scoreboard first had it: every query
// rescans it from the start and nothing is cached.
type scanSet struct{ rs []byteRange }

func (s *scanSet) add(start, end int64) {
	if end <= start {
		return
	}
	rs := s.rs
	i := 0
	for i < len(rs) && rs[i].End < start {
		i++
	}
	j := i
	for j < len(rs) && rs[j].Start <= end {
		start, end = min(start, rs[j].Start), max(end, rs[j].End)
		j++
	}
	if i == j {
		rs = append(rs, byteRange{})
		copy(rs[i+1:], rs[i:])
	} else {
		rs = append(rs[:i+1], rs[j:]...)
	}
	rs[i] = byteRange{Start: start, End: end}
	s.rs = rs
}

func (s *scanSet) trimBelow(mark int64) {
	out := s.rs[:0]
	for _, r := range s.rs {
		if r.End <= mark {
			continue
		}
		r.Start = max(r.Start, mark)
		out = append(out, r)
	}
	s.rs = out
}

func (s *scanSet) total() int64 {
	var n int64
	for _, r := range s.rs {
		n += r.End - r.Start
	}
	return n
}

// scanBoard is a flow's receiver and SACK scoreboard as they were before the
// running totals and the hole cursor: each ack's blocks are copied one by
// one, and nextHole, pipe and holeBytes rescan both lists from una on every
// call.
type scanBoard struct {
	mss                           int
	una, nextSeq, recover         int64
	inRecovery, rtoRecovery       bool
	sacked, retransmitted         scanSet
	highestSacked, markedLostUpTo int64

	rcvNext int64
	rcvOOO  scanSet
}

func (b *scanBoard) receive(seq, end int64) {
	if end > b.rcvNext {
		b.rcvOOO.add(max(seq, b.rcvNext), end)
	}
	rs := b.rcvOOO.rs
	k := 0
	for ; k < len(rs) && rs[k].Start <= b.rcvNext; k++ {
		b.rcvNext = max(b.rcvNext, rs[k].End)
	}
	b.rcvOOO.rs = rs[:copy(rs, rs[k:])]
}

func (b *scanBoard) takeAck(ackNo int64, sack []byteRange) {
	b.sacked.rs = b.sacked.rs[:0]
	b.highestSacked = b.una
	for _, r := range sack {
		b.sacked.rs = append(b.sacked.rs, r)
		b.highestSacked = max(b.highestSacked, r.End)
	}
	if ackNo <= b.una {
		return
	}
	b.una = ackNo
	b.sacked.trimBelow(b.una)
	b.retransmitted.trimBelow(b.una)
	b.highestSacked = max(b.highestSacked, b.una)
	b.markedLostUpTo = max(b.markedLostUpTo, b.una)
	if b.inRecovery && ackNo >= b.recover {
		b.inRecovery, b.rtoRecovery = false, false
		b.retransmitted.rs = b.retransmitted.rs[:0]
		b.markedLostUpTo = b.una
	}
}

func (b *scanBoard) enterRecovery() {
	b.inRecovery = true
	b.recover = b.nextSeq
	b.retransmitted.rs = b.retransmitted.rs[:0]
}

func (b *scanBoard) onTimeout() {
	b.retransmitted.rs = b.retransmitted.rs[:0]
	b.inRecovery, b.rtoRecovery = true, true
	b.recover = b.nextSeq
	b.markedLostUpTo = b.nextSeq
}

func (b *scanBoard) repairTo() int64 { return max(b.markedLostUpTo, b.highestSacked) }

func (b *scanBoard) holeBytes() int64 {
	to := b.repairTo()
	if to <= b.una {
		return 0
	}
	return max(0, to-b.una-b.sacked.total())
}

func (b *scanBoard) pipe() int {
	p := b.nextSeq - b.una - b.sacked.total() - b.holeBytes() + b.retransmitted.total()
	return int(max(0, p))
}

func (b *scanBoard) nextHole() (start, end int64, ok bool) {
	to := b.repairTo()
	off := b.una
	i, j := 0, 0
	sr, rr := b.sacked.rs, b.retransmitted.rs
	for off < to {
		covered := false
		for i < len(sr) && sr[i].End <= off {
			i++
		}
		if i < len(sr) && sr[i].Start <= off {
			off = sr[i].End
			covered = true
		}
		for j < len(rr) && rr[j].End <= off {
			j++
		}
		if j < len(rr) && rr[j].Start <= off {
			off = rr[j].End
			covered = true
		}
		if covered {
			continue
		}
		end = min(off+int64(b.mss), to)
		if i < len(sr) && sr[i].Start < end {
			end = sr[i].Start
		}
		if j < len(rr) && rr[j].Start < end {
			end = rr[j].Start
		}
		return off, end, true
	}
	return 0, 0, false
}

// Script ops. The script plays the network and the send policy: it decides
// which segments and acks arrive, in what order, and when the sender
// retransmits, enters recovery or times out.
const (
	opSend          = iota // a new segment leaves the sender
	opDeliver              // the oldest data segment in flight arrives
	opDeliverAny           // any data segment in flight arrives, overtaking older ones
	opLoseData             // a data segment in flight is lost
	opAck                  // the oldest ack in flight arrives
	opAckAny               // any ack in flight arrives, overtaking older ones
	opLoseAck              // an ack in flight is lost
	opRetransmit           // in recovery, the next hole is retransmitted
	opEnterRecovery        // loss detection fires
	opTimeout              // the RTO fires
)

// scriptOps weights the ops: each draw, or each fuzz byte, picks one entry.
var scriptOps = []int{
	opSend, opSend, opSend, opSend, opSend, opSend,
	opDeliver, opDeliver, opDeliver, opDeliver, opDeliver, opDeliverAny, opLoseData, opLoseData,
	opAck, opAck, opAck, opAck, opAck, opAckAny, opAckAny, opLoseAck,
	opRetransmit, opRetransmit, opRetransmit, opRetransmit,
	opEnterRecovery, opTimeout,
}

// scriptMSS is small so that short scripts still leave many holes.
const scriptMSS = 100

// sentAck is an ack in flight: the flow's own packet, and the reference
// receiver's state when it was sent.
type sentAck struct {
	p    *netsim.Packet
	ack  int64
	sack []byteRange
}

// scoreboardScript drives a Flow's receiver and scoreboard and a scanBoard
// through the same steps. pick returns a choice in [0, n), or false when
// the script has run out.
type scoreboardScript struct {
	pick func(n int) (int, bool)
	sim  *netsim.Sim
	f    *Flow
	ref  *scanBoard
	data []byteRange // data segments in flight, oldest first
	acks []sentAck   // acks in flight, oldest first
	last uint64      // ID of the last ack the sender took
	// Edge cases reached, so the test can check the scripts cover them.
	stale, timeouts, exits, retransmits int
}

func newScoreboardScript(pick func(n int) (int, bool)) (*scoreboardScript, error) {
	sim := netsim.NewSim(1)
	path, err := netsim.NewPath(
		[]*netsim.Node{netsim.NewNode("c", ""), netsim.NewNode("s", "")},
		[]netsim.LinkSpec{{RateBps: 10e6, Delay: 10 * time.Millisecond}}, nil)
	if err != nil {
		return nil, err
	}
	f, err := NewFlow(sim, path, FlowConfig{Algorithm: NewReno(), MSS: scriptMSS})
	if err != nil {
		return nil, err
	}
	// A stopped flow sends nothing from enterRecovery or onTimeout, so the
	// script alone decides what is in flight. The sim never runs.
	f.Stop()
	return &scoreboardScript{pick: pick, sim: sim, f: f, ref: &scanBoard{mss: scriptMSS}}, nil
}

// take removes and returns the oldest entry of q or, when overtake is set,
// an entry the script picks.
func take[T any](sc *scoreboardScript, q *[]T, overtake bool) (T, bool) {
	var zero T
	if len(*q) == 0 {
		return zero, false
	}
	i := 0
	if overtake {
		var ok bool
		if i, ok = sc.pick(len(*q)); !ok {
			return zero, false
		}
	}
	v := (*q)[i]
	*q = slices.Delete(*q, i, i+1)
	return v, true
}

// step runs one op. It returns false once pick has run out.
func (sc *scoreboardScript) step() (bool, error) {
	k, ok := sc.pick(len(scriptOps))
	if !ok {
		return false, nil
	}
	f, ref := sc.f, sc.ref
	switch op := scriptOps[k]; op {
	case opSend:
		seg := byteRange{Start: f.nextSeq, End: f.nextSeq + scriptMSS}
		f.nextSeq, ref.nextSeq = seg.End, seg.End
		sc.data = append(sc.data, seg)
	case opDeliver, opDeliverAny, opLoseData:
		seg, ok := take(sc, &sc.data, op != opDeliver)
		if !ok || op == opLoseData {
			break
		}
		f.receive(seg.Start, seg.End)
		ref.receive(seg.Start, seg.End)
		p := sc.sim.NewPacket()
		p.ID, p.IsAck = sc.sim.NextPacketID(), true
		f.fillAck(p)
		a := sentAck{p: p, ack: ref.rcvNext, sack: slices.Clone(ref.rcvOOO.rs)}
		if p.Ack != a.ack || !slices.Equal(f.rcvOOO.rs, a.sack) {
			return true, fmt.Errorf("receiver acks %d %v, reference %d %v", p.Ack, f.rcvOOO.rs, a.ack, a.sack)
		}
		sc.acks = append(sc.acks, a)
	case opAck, opAckAny, opLoseAck:
		a, ok := take(sc, &sc.acks, op != opAck)
		if !ok {
			break
		}
		if op == opLoseAck {
			sc.sim.FreePacket(a.p)
			break
		}
		id := a.p.ID
		if id < sc.last {
			sc.stale++
		}
		sc.last = id
		recovering := f.inRecovery
		f.takeAck(sc.sim, a.p) // frees a.p
		ref.takeAck(a.ack, a.sack)
		if !slices.Equal(f.sacked.rs, a.sack) || f.sacked.total() != ref.sacked.total() {
			return true, fmt.Errorf("ack %d (cumulative %d) installs %v, the receiver had %v when it was sent",
				id, a.ack, f.sacked.rs, a.sack)
		}
		if recovering && !f.inRecovery {
			sc.exits++
		}
	case opRetransmit:
		if !f.inRecovery {
			break
		}
		start, end, ok := f.nextHole()
		ws, we, wok := ref.nextHole()
		if start != ws || end != we || ok != wok {
			return true, fmt.Errorf("retransmit hole [%d,%d) %v, reference [%d,%d) %v", start, end, ok, ws, we, wok)
		}
		if ok {
			f.retransmitted.add(start, end)
			ref.retransmitted.add(start, end)
			sc.data = append(sc.data, byteRange{Start: start, End: end})
			sc.retransmits++
		}
	case opEnterRecovery:
		if !f.inRecovery {
			f.enterRecovery(0, 0)
			ref.enterRecovery()
		}
	case opTimeout:
		f.onTimeout()
		ref.onTimeout()
		sc.timeouts++
	}
	return true, nil
}

// check compares everything the sender decides by: the next hole, pipe,
// the sacked total, highestSacked and the presumed-lost bytes.
func (sc *scoreboardScript) check() error {
	f, ref := sc.f, sc.ref
	start, end, ok := f.nextHole()
	ws, we, wok := ref.nextHole()
	if start != ws || end != we || ok != wok {
		return fmt.Errorf("nextHole [%d,%d) %v, reference [%d,%d) %v", start, end, ok, ws, we, wok)
	}
	if got, want := f.pipe(), ref.pipe(); got != want {
		return fmt.Errorf("pipe %d, reference %d", got, want)
	}
	if got, want := f.sacked.total(), ref.sacked.total(); got != want {
		return fmt.Errorf("sacked total %d, reference %d", got, want)
	}
	if f.highestSacked != ref.highestSacked {
		return fmt.Errorf("highestSacked %d, reference %d", f.highestSacked, ref.highestSacked)
	}
	if got, want := f.holeBytes(), ref.holeBytes(); got != want {
		return fmt.Errorf("holeBytes %d, reference %d", got, want)
	}
	if f.una != ref.una || f.inRecovery != ref.inRecovery {
		return fmt.Errorf("una %d in recovery %v, reference %d %v", f.una, f.inRecovery, ref.una, ref.inRecovery)
	}
	return nil
}

// runScoreboardScript runs at most steps steps, fewer if pick runs out, and
// checks the flow against the reference after every one.
func runScoreboardScript(pick func(n int) (int, bool), steps int) (*scoreboardScript, error) {
	sc, err := newScoreboardScript(pick)
	if err != nil {
		return nil, err
	}
	for n := 0; n < steps; n++ {
		more, err := sc.step()
		if err == nil {
			err = sc.check()
		}
		if err != nil {
			return sc, fmt.Errorf("step %d: %v", n, err)
		}
		if !more {
			break
		}
	}
	return sc, nil
}

// TestScoreboardMatchesScanReference: over seeded scripts of sends, losses,
// reordered deliveries, reordered and lost acks, retransmits, recovery
// entries, RTOs and recovery exits, the flow's receiver acks exactly what
// the reference receiver does, and after every step the sender picks the
// same next hole and reports the same pipe, sacked total, highestSacked and
// presumed-lost bytes as the full rescan.
func TestScoreboardMatchesScanReference(t *testing.T) {
	var stale, timeouts, exits, retransmits int
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sc, err := runScoreboardScript(func(n int) (int, bool) { return rng.Intn(n), true }, 600)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		stale += sc.stale
		timeouts += sc.timeouts
		exits += sc.exits
		retransmits += sc.retransmits
	}
	t.Logf("over 200 scripts: %d acks older than the one before, %d RTOs, %d recovery exits, %d retransmits",
		stale, timeouts, exits, retransmits)
	if stale < 200 || timeouts < 200 || exits < 200 || retransmits < 200 {
		t.Fatal("the scripts are not exercising the edge cases")
	}
}

// bytePick plays a script from bytes: each byte picks an op, or which
// segment or ack arrives.
func bytePick(script []byte) func(n int) (int, bool) {
	return func(n int) (int, bool) {
		if len(script) == 0 {
			return 0, false
		}
		v := int(script[0]) % n
		script = script[1:]
		return v, true
	}
}

// opByte is the script byte that picks op.
func opByte(op int) byte { return byte(slices.Index(scriptOps, op)) }

// staleAckScript leaves two acks in flight with the same SACK state in
// the receiver's log but different cumulative acks: the in-order [0,100)
// moves the cumulative ack over [100,200) without logging anything. The
// newer ack arrives first and its cumulative ack drops [100,200) from the
// sender's list; the older one then has to bring it back.
var staleAckScript = []byte{
	opByte(opSend), opByte(opSend), opByte(opSend), opByte(opSend),
	opByte(opDeliverAny), 1, // [100,200): ack 1 SACKs [100,200)
	opByte(opDeliverAny), 2, // [300,400): ack 2 SACKs [100,200) [300,400)
	opByte(opDeliver),   // [0,100): ack 3 acks 200 and SACKs [300,400)
	opByte(opAckAny), 2, // ack 3 arrives first
	opByte(opAckAny), 1, // then ack 2
}

// TestStaleAckAtSameLogPosition: an ack that arrives after a newer one with
// the same SACK log position but a higher cumulative ack installs its own
// list, [100,200) included, not the newer ack's.
func TestStaleAckAtSameLogPosition(t *testing.T) {
	sc, err := runScoreboardScript(bytePick(staleAckScript), len(staleAckScript)+1)
	if err != nil {
		t.Fatal(err)
	}
	want := []byteRange{{Start: 100, End: 200}, {Start: 300, End: 400}}
	if sc.stale != 1 || sc.f.una != 200 || !slices.Equal(sc.f.sacked.rs, want) {
		t.Fatalf("after %d stale acks: una %d, sacked %v; want 1 stale ack, una 200 and %v",
			sc.stale, sc.f.una, sc.f.sacked.rs, want)
	}
}

// FuzzScoreboardMatchesScan drives the same script runner from fuzz bytes.
func FuzzScoreboardMatchesScan(f *testing.F) {
	// An older ack arrives after a retransmit has moved the hole search past
	// a block that ack does not SACK, so [200,300) is a hole again.
	f.Add([]byte{
		opByte(opSend), opByte(opSend), opByte(opSend), opByte(opSend),
		opByte(opLoseData), 0, // [0,100) is lost
		opByte(opDeliver),       // [100,200): ack 1 SACKs [100,200)
		opByte(opDeliverAny), 1, // [300,400): ack 2 SACKs [100,200) [300,400)
		opByte(opDeliver),   // [200,300): ack 3 SACKs [100,400)
		opByte(opAckAny), 2, // ack 3 arrives first
		opByte(opEnterRecovery),
		opByte(opRetransmit), // [0,100)
		opByte(opAckAny), 1,  // then ack 2
	})
	f.Add(staleAckScript)
	seed := make([]byte, 512)
	rand.New(rand.NewSource(1)).Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, script []byte) {
		if _, err := runScoreboardScript(bytePick(script), len(script)+1); err != nil {
			t.Fatal(err)
		}
	})
}

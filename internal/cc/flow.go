package cc

import (
	"fmt"
	"sync/atomic"
	"time"

	"starlinkview/internal/netsim"
)

// Flow default parameters.
const (
	// DefaultMSS is the segment payload size used by the study's bulk
	// transfers (1500-byte MTU minus IP/TCP headers).
	DefaultMSS = 1448
	// headerBytes approximates IP+TCP header overhead on the wire.
	headerBytes = 52
	// ackSize is the wire size of a pure ack.
	ackSize = 64
	// minRTO is the floor for the retransmission timeout.
	minRTO = 200 * time.Millisecond
	// maxBurst caps how many segments a window-based sender may emit
	// back-to-back when not pacing, like Linux's TSQ burst cap.
	maxBurst = 64
	// sackLossThresholdSegs: recovery starts once this many segments' worth
	// of data is SACKed above the cumulative ack (RFC 6675 DupThresh).
	sackLossThresholdSegs = 3
)

// FlowConfig configures one bulk-transfer flow over a netsim path.
type FlowConfig struct {
	Algorithm Algorithm
	MSS       int // segment payload bytes; DefaultMSS if zero
	// LimitBytes stops the transfer after this much application data;
	// 0 means run until Stop (iperf-style).
	LimitBytes int64
	SrcPort    int
	DstPort    int
	// Reverse runs the transfer from the path's server to its client — the
	// download direction of a speedtest.
	Reverse bool
}

// FlowStats summarises a finished (or running) flow.
type FlowStats struct {
	DeliveredBytes int64 // cumulatively acked application bytes
	SentPackets    int
	RetransPackets int
	Timeouts       int
	FastRecoveries int
	Duration       time.Duration // time of last cumulative-ack advance
	MinRTT         time.Duration
	SRTT           time.Duration
}

// GoodputBps returns the delivered application-layer rate in bits/second.
func (st FlowStats) GoodputBps() float64 {
	if st.Duration <= 0 {
		return 0
	}
	return float64(st.DeliveredBytes*8) / st.Duration.Seconds()
}

// byteRange is one contiguous byte range [Start, End).
type byteRange struct {
	Start, End int64
}

// rangeSet is a sorted list of disjoint, non-touching byte ranges with
// merge-on-insert, and the number of bytes they hold. The receiver uses one
// for out-of-order data; the sender uses two as its retransmission
// scoreboard, one of them rebuilt from the receiver's SACK log.
type rangeSet struct {
	rs []byteRange
	n  int64 // bytes in rs
}

// after returns the index of the first range that ends above off.
func (s *rangeSet) after(off int64) int {
	lo, hi := 0, len(s.rs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.rs[m].End <= off {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// add inserts [start, end), merging overlapping or adjacent ranges. The
// merged range replaces the run it absorbs in place.
func (s *rangeSet) add(start, end int64) {
	if end <= start {
		return
	}
	rs := s.rs
	i := s.after(start - 1) // first range not strictly before [start, end)
	j := i                  // first range strictly after it; rs[i:j] overlap or touch
	for ; j < len(rs) && rs[j].Start <= end; j++ {
		start, end = min(start, rs[j].Start), max(end, rs[j].End)
		s.n -= rs[j].End - rs[j].Start
	}
	if i == j {
		rs = append(rs, byteRange{})
		copy(rs[i+1:], rs[i:])
	} else {
		rs = append(rs[:i+1], rs[j:]...)
	}
	rs[i] = byteRange{Start: start, End: end}
	s.n += end - start
	s.rs = rs
}

// trimBelow removes all bytes below the watermark.
func (s *rangeSet) trimBelow(mark int64) {
	k := s.after(mark)
	for _, r := range s.rs[:k] {
		s.n -= r.End - r.Start
	}
	if k < len(s.rs) && s.rs[k].Start < mark {
		s.n -= mark - s.rs[k].Start
		s.rs[k].Start = mark
	}
	if k > 0 {
		s.rs = s.rs[:copy(s.rs, s.rs[k:])]
	}
}

// popPrefix drops the ranges that start at or below next and returns next
// advanced over them, keeping the slice's capacity. The receiver calls it
// to move rcvNext over newly contiguous data.
func (s *rangeSet) popPrefix(next int64) int64 {
	rs := s.rs
	k := 0
	for ; k < len(rs) && rs[k].Start <= next; k++ {
		next = max(next, rs[k].End)
		s.n -= rs[k].End - rs[k].Start
	}
	if k > 0 {
		s.rs = rs[:copy(rs, rs[k:])]
	}
	return next
}

// total returns the number of bytes in the set.
func (s *rangeSet) total() int64 { return s.n }

func (s *rangeSet) clear() { s.rs, s.n = s.rs[:0], 0 }

// Flow is a unidirectional bulk TCP-like transfer: a sender on the client
// node, a receiver on the server node, cumulative acks with idealised SACK,
// RFC 6675-style loss recovery with pipe accounting, an RTO timer, and
// optional pacing (BBR).
type Flow struct {
	sim  *netsim.Sim
	path *netsim.Path
	cfg  FlowConfig
	algo Algorithm
	mss  int
	id   uint64
	snd  *netsim.Node // sending endpoint
	rcv  *netsim.Node // receiving endpoint

	// Sender state.
	una         int64 // oldest unacked byte
	nextSeq     int64 // next new byte to send
	delivered   int64 // cumulative delivered bytes (rate sampling)
	deliveredAt time.Duration
	dupAcks     int
	inRecovery  bool
	rtoRecovery bool  // current recovery was triggered by an RTO
	recover     int64 // recovery point: nextSeq at loss detection

	// SACK scoreboard (sender view, refreshed from each ack). sacked is the
	// receiver's out-of-order list as of the installed ack, whose position
	// in the SACK log and cumulative ack are sackFrom, sackLen, sackEnd and
	// sackAck (see installSack).
	sacked        rangeSet
	retransmitted rangeSet // bytes retransmitted this recovery, not yet acked
	sackFrom      int
	sackLen       int
	sackEnd       int64
	sackAck       int64
	highestSacked int64
	// markedLostUpTo extends the repair horizon after an RTO, when all
	// outstanding data is presumed lost regardless of SACK state.
	markedLostUpTo int64
	// holeFrom is where nextHole resumes: every byte in [una, holeFrom) is
	// sacked or retransmitted (DESIGN §18, SACK scoreboard).
	holeFrom int64
	ackID    uint64 // packet ID of the ack the SACK state came from

	// RTT estimation (RFC 6298).
	srtt   time.Duration
	rttvar time.Duration
	minRTT time.Duration

	// Pacing.
	nextSendAt    time.Duration
	sendScheduled bool
	sendFn        func() // the scheduled-send callback, built once

	rtoTimer *netsim.Timer

	// Receiver state.
	rcvNext int64    // next expected byte
	rcvOOO  rangeSet // out-of-order data
	// rcvLog is the SACK log: every arrival that starts above rcvNext, in
	// arrival order, except that one starting where the last entry of the
	// current episode ends extends that entry in place. An episode starts
	// when rcvOOO goes from empty to non-empty, at log index rcvEpisode.
	rcvLog     []byteRange
	rcvEpisode int

	stats   FlowStats
	stopped bool
	// OnDone, if set, is called once when LimitBytes have been delivered.
	OnDone func()
}

// flowIDs is atomic because studies run independent simulations (each with
// its own flows) on concurrent goroutines. The id is a diagnostic tag on
// emitted packets — nothing routes or branches on it — so the assignment
// order cannot affect results.
var flowIDs atomic.Uint64

// NewFlow creates a flow from the path's client to its server and registers
// both endpoints. Start must be called to begin transmission.
func NewFlow(sim *netsim.Sim, path *netsim.Path, cfg FlowConfig) (*Flow, error) {
	if cfg.Algorithm == nil {
		return nil, fmt.Errorf("cc: flow needs an algorithm")
	}
	if cfg.MSS == 0 {
		cfg.MSS = DefaultMSS
	}
	if cfg.MSS <= 0 {
		return nil, fmt.Errorf("cc: invalid MSS %d", cfg.MSS)
	}
	if cfg.SrcPort == 0 {
		cfg.SrcPort = 40000
	}
	if cfg.DstPort == 0 {
		cfg.DstPort = 5201
	}
	f := &Flow{
		sim:  sim,
		path: path,
		cfg:  cfg,
		algo: cfg.Algorithm,
		mss:  cfg.MSS,
		id:   flowIDs.Add(1),
	}
	f.algo.Init(f.mss)
	f.sendFn = func() {
		f.sendScheduled = false
		f.trySend()
	}
	f.rtoTimer = sim.NewTimer(func() {
		if !f.stopped {
			f.onTimeout()
		}
	})
	f.snd, f.rcv = path.Client(), path.Server()
	if cfg.Reverse {
		f.snd, f.rcv = f.rcv, f.snd
	}
	f.snd.RegisterLocal(cfg.SrcPort, netsim.HandlerFunc(f.handleAck))
	f.rcv.RegisterLocal(cfg.DstPort, netsim.HandlerFunc(f.handleData))
	return f, nil
}

// Start begins the transfer at the current simulated time.
func (f *Flow) Start() {
	f.deliveredAt = f.sim.Now()
	f.trySend()
	f.armRTO()
}

// Stop halts the sender; in-flight packets still drain.
func (f *Flow) Stop() {
	f.stopped = true
	f.rtoTimer.Stop()
}

// Stats returns a snapshot of the flow's statistics.
func (f *Flow) Stats() FlowStats { return f.stats }

// Algorithm returns the flow's congestion controller.
func (f *Flow) Algorithm() Algorithm { return f.algo }

// pipe estimates the bytes actually in flight per RFC 6675: raw outstanding
// minus SACKed minus presumed-lost holes, plus retransmissions still out.
func (f *Flow) pipe() int {
	raw := f.nextSeq - f.una
	holes := f.holeBytes()
	p := raw - f.sacked.total() - holes + f.retransmitted.total()
	if p < 0 {
		p = 0
	}
	return int(p)
}

// repairTo returns the upper bound of the presumed-lost region: the highest
// SACKed byte normally, or the whole outstanding window after an RTO.
func (f *Flow) repairTo() int64 {
	if f.markedLostUpTo > f.highestSacked {
		return f.markedLostUpTo
	}
	return f.highestSacked
}

// holeBytes returns the bytes between una and the repair horizon not covered
// by SACK — the presumed-lost data.
func (f *Flow) holeBytes() int64 {
	to := f.repairTo()
	if to <= f.una {
		return 0
	}
	h := to - f.una - f.sacked.total()
	if h < 0 {
		h = 0
	}
	return h
}

// rto returns the current retransmission timeout per RFC 6298.
func (f *Flow) rto() time.Duration {
	if f.srtt == 0 {
		return time.Second
	}
	rto := f.srtt + 4*f.rttvar
	if rto < minRTO {
		rto = minRTO
	}
	return rto
}

// armRTO (re)arms the retransmission timer.
func (f *Flow) armRTO() { f.sim.ResetTimer(f.rtoTimer, f.rto()) }

// trySend transmits retransmissions and new data as the window and pacing
// rate allow. Retransmissions take priority and are paced like everything
// else, so loss repair cannot itself flood the bottleneck.
func (f *Flow) trySend() {
	if f.stopped || f.sendScheduled {
		return
	}
	pacing := f.algo.PacingRate()
	burst := 0
	for {
		if pacing > 0 && f.sim.Now() < f.nextSendAt {
			f.scheduleSend(f.nextSendAt - f.sim.Now())
			return
		}
		size, ok := f.sendOne()
		if !ok {
			return
		}
		if pacing > 0 {
			gap := time.Duration(float64(size+headerBytes) / pacing * float64(time.Second))
			if f.nextSendAt < f.sim.Now() {
				f.nextSendAt = f.sim.Now()
			}
			f.nextSendAt += gap
		} else {
			burst++
			if burst >= maxBurst {
				// Yield to the event loop to avoid unbounded bursts.
				f.scheduleSend(0)
				return
			}
		}
	}
}

// sendOne emits the single most urgent segment (a lost hole first, then new
// data) if it fits in the window. It returns the bytes sent.
func (f *Flow) sendOne() (int, bool) {
	if f.stopped {
		return 0, false
	}
	cwnd := f.algo.Cwnd()
	if f.inRecovery {
		if start, end, ok := f.nextHole(); ok {
			if f.pipe()+int(end-start) > cwnd {
				return 0, false
			}
			f.sendSegment(start, int(end-start), true)
			f.retransmitted.add(start, end)
			return int(end - start), true
		}
	}
	if f.cfg.LimitBytes > 0 && f.nextSeq >= f.cfg.LimitBytes {
		return 0, false
	}
	size := f.segmentSize()
	if f.pipe()+size > cwnd {
		return 0, false
	}
	f.sendSegment(f.nextSeq, size, false)
	f.nextSeq += int64(size)
	return size, true
}

// nextHole returns the next presumed-lost byte range to retransmit (at most
// one MSS), or ok=false when every hole is repaired or already in flight.
// Both range sets are sorted, so a merge-scan finds the first gap. It starts
// at holeFrom, below which nothing is left to repair, and leaves holeFrom at
// the gap it finds.
func (f *Flow) nextHole() (start, end int64, ok bool) {
	to := f.repairTo()
	off := max(f.una, f.holeFrom)
	if off >= to {
		return 0, 0, false
	}
	sr, rr := f.sacked.rs, f.retransmitted.rs
	i, j := f.sacked.after(off), f.retransmitted.after(off)
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
		f.holeFrom = off
		end = min(off+int64(f.mss), to)
		if i < len(sr) && sr[i].Start < end {
			end = sr[i].Start
		}
		if j < len(rr) && rr[j].Start < end {
			end = rr[j].Start
		}
		return off, end, true
	}
	f.holeFrom = off
	return 0, 0, false
}

// segmentSize returns the next segment's payload size, trimmed at the
// application limit.
func (f *Flow) segmentSize() int {
	size := f.mss
	if f.cfg.LimitBytes > 0 {
		if rem := f.cfg.LimitBytes - f.nextSeq; rem < int64(size) {
			size = int(rem)
		}
	}
	return size
}

func (f *Flow) scheduleSend(d time.Duration) {
	f.sendScheduled = true
	f.sim.Schedule(d, f.sendFn)
}

// sendSegment emits one data segment. Like handleData's ack, the packet is
// filled in field by field: NewPacket returns it zeroed, and a composite
// literal would build all of it in a temporary and copy it over.
func (f *Flow) sendSegment(seq int64, size int, retrans bool) {
	p := f.sim.NewPacket()
	p.ID = f.sim.NextPacketID()
	p.Flow = f.id
	p.Size = size + headerBytes
	p.Src, p.Dst = f.snd.Name, f.rcv.Name
	p.SrcPort, p.DstPort = f.cfg.SrcPort, f.cfg.DstPort
	p.TTL = 64
	p.Seq = seq
	p.SentAt = f.sim.Now()
	p.Delivered, p.DeliveredAt = f.delivered, f.deliveredAt
	p.Retrans = retrans
	f.stats.SentPackets++
	if retrans {
		f.stats.RetransPackets++
	}
	f.snd.Handle(f.sim, p)
}

// handleData runs on the server: reassemble, advance rcvNext, and ack with
// the out-of-order state's position in the SACK log. The data packet is
// freed once the ack is sent.
func (f *Flow) handleData(s *netsim.Sim, p *netsim.Packet) {
	if p.IsAck || p.ICMP != netsim.ICMPNone {
		return
	}
	f.receive(p.Seq, p.Seq+int64(p.Size-headerBytes))
	ack := s.NewPacket()
	ack.ID = s.NextPacketID()
	ack.Flow = f.id
	ack.Size = ackSize
	ack.Src, ack.Dst = f.rcv.Name, f.snd.Name
	ack.SrcPort, ack.DstPort = f.cfg.DstPort, f.cfg.SrcPort
	ack.TTL = 64
	ack.IsAck = true
	ack.Seq = p.Seq
	ack.SentAt = p.SentAt // timestamp echo
	ack.Delivered, ack.DeliveredAt = p.Delivered, p.DeliveredAt
	ack.Retrans = p.Retrans
	f.fillAck(ack)
	f.rcv.Handle(s, ack)
	s.FreePacket(p)
}

// receive records the data bytes [seq, end) at the receiver, logs them if
// they arrive out of order, and advances rcvNext over any now-contiguous
// prefix. An episode ends when rcvOOO empties; the next one starts at the
// log's end.
func (f *Flow) receive(seq, end int64) {
	if seq > f.rcvNext {
		if n := len(f.rcvLog); n > f.rcvEpisode && f.rcvLog[n-1].End == seq {
			f.rcvLog[n-1].End = end
		} else {
			f.rcvLog = append(f.rcvLog, byteRange{Start: seq, End: end})
		}
	}
	if end > f.rcvNext {
		f.rcvOOO.add(max(seq, f.rcvNext), end)
	}
	f.rcvNext = f.rcvOOO.popPrefix(f.rcvNext)
	if f.rcvOOO.total() == 0 {
		f.rcvEpisode = len(f.rcvLog)
	}
}

// fillAck writes the receiver's cumulative ack and its out-of-order state's
// position in the SACK log into the zeroed ack: where the episode starts,
// how many entries it has, and the last one's End, which later arrivals may
// extend.
func (f *Flow) fillAck(ack *netsim.Packet) {
	ack.Ack = f.rcvNext
	ack.SackFrom, ack.SackLen = f.rcvEpisode, len(f.rcvLog)-f.rcvEpisode
	if ack.SackLen > 0 {
		ack.SackEnd = f.rcvLog[len(f.rcvLog)-1].End
	}
}

// handleAck runs on the client. The ack is freed as soon as its SACK state
// is installed.
func (f *Flow) handleAck(s *netsim.Sim, p *netsim.Packet) {
	if !p.IsAck {
		return
	}
	if f.stopped {
		s.FreePacket(p)
		return
	}
	now := s.Now()
	retrans, delivered, deliveredAt := p.Retrans, p.Delivered, p.DeliveredAt

	// RTT sample (Karn's rule: never from retransmitted segments).
	var rtt time.Duration
	if !retrans && p.SentAt > 0 {
		rtt = now - p.SentAt
		f.updateRTT(rtt)
	}

	if acked := f.takeAck(s, p); acked > 0 {
		f.delivered += int64(acked)
		f.deliveredAt = now
		f.stats.DeliveredBytes = f.delivered
		f.stats.Duration = now
		f.dupAcks = 0

		// Delivery-rate sample for BBR. Acks of retransmissions are
		// excluded: a retransmission that fills a hole releases a burst of
		// long-buffered bytes at once, which would wildly inflate the rate.
		var rate float64
		if !retrans {
			if interval := now - deliveredAt; interval > 0 {
				rate = float64(f.delivered-delivered) / interval.Seconds()
			}
		}
		f.algo.OnAck(AckEvent{
			Now:            now,
			RTT:            rtt,
			MinRTT:         f.minRTT,
			AckedBytes:     acked,
			Inflight:       f.pipe(),
			DeliveryRate:   rate,
			TotalDelivered: f.delivered,
			MSS:            f.mss,
			// RTO recovery slow-starts like normal TCP; only fast recovery
			// freezes the window.
			InRecovery: f.inRecovery && !f.rtoRecovery,
		})

		if f.cfg.LimitBytes > 0 && f.una >= f.cfg.LimitBytes {
			f.stopped = true
			f.rtoTimer.Stop()
			if f.OnDone != nil {
				f.OnDone()
			}
			return
		}
		f.armRTO()
	} else {
		f.dupAcks++
	}

	// Loss detection: enough SACKed data above the cumulative ack, or the
	// classic three duplicate acks.
	lost := f.sacked.total() > int64(sackLossThresholdSegs*f.mss) || f.dupAcks >= 3
	if !f.inRecovery && lost && f.holeBytes() > 0 {
		f.enterRecovery(now, rtt)
	}
	f.trySend()
}

// takeAck installs the SACK state the ack p carries, frees p, and moves the
// cumulative ack up to p's. It returns the bytes newly acked.
func (f *Flow) takeAck(s *netsim.Sim, p *netsim.Packet) int {
	ackNo := p.Ack
	// Refresh the scoreboard from the receiver's authoritative state. A
	// receiver's state only grows, so an ack older than the one installed is
	// the one case where bytes below holeFrom can stop being sacked.
	if p.ID < f.ackID {
		f.holeFrom = 0
	}
	f.ackID = p.ID
	f.installSack(ackNo, p.SackFrom, p.SackLen, p.SackEnd)
	f.highestSacked = f.una
	if n := len(f.sacked.rs); n > 0 {
		f.highestSacked = max(f.highestSacked, f.sacked.rs[n-1].End)
	}
	s.FreePacket(p)

	if ackNo <= f.una {
		return 0
	}
	acked := int(ackNo - f.una)
	f.una = ackNo
	f.retransmitted.trimBelow(f.una)
	f.highestSacked = max(f.highestSacked, f.una)
	f.markedLostUpTo = max(f.markedLostUpTo, f.una)
	if f.inRecovery && ackNo >= f.recover {
		f.inRecovery = false
		f.rtoRecovery = false
		f.clearRetransmitted()
		f.markedLostUpTo = f.una
	}
	return acked
}

// installSack makes sacked the receiver's out-of-order list as it was when
// an ack with cumulative ack ack and SACK log position (from, n, end) was
// sent: the union of the episode's n entries, the last one cut at end, less
// what ack covers. No range of that union straddles ack, since rcvNext
// never stops inside received data.
//
// Only the episode's last entry grows, and only while it is last. So an ack
// of the installed one's episode that is no older and acks no less adds the
// installed ack's last entry again, then the entries after it, and trims.
// Any other ack, of a new episode or older than the installed one, rebuilds
// the list. The cumulative-ack condition matters: in-order arrivals move
// rcvNext without logging anything, so two acks at one log position can
// differ in it, and the older one must bring back what the newer one's
// cumulative ack dropped.
func (f *Flow) installSack(ack int64, from, n int, end int64) {
	i := 0
	if from == f.sackFrom && (n > f.sackLen || n == f.sackLen && end >= f.sackEnd) && ack >= f.sackAck {
		i = max(f.sackLen-1, 0)
	} else {
		f.sacked.clear()
	}
	for ; i < n; i++ {
		r := f.rcvLog[from+i]
		if i == n-1 {
			r.End = end
		}
		f.sacked.add(r.Start, r.End)
	}
	f.sacked.trimBelow(ack)
	f.sackFrom, f.sackLen, f.sackEnd, f.sackAck = from, n, end, ack
}

// clearRetransmitted forgets this recovery's retransmissions. Bytes below
// holeFrom may then be holes again, so the hole search restarts at una.
func (f *Flow) clearRetransmitted() {
	f.retransmitted.clear()
	f.holeFrom = 0
}

// enterRecovery tells the algorithm about the loss and starts SACK-based
// retransmission.
func (f *Flow) enterRecovery(now, rtt time.Duration) {
	f.inRecovery = true
	f.recover = f.nextSeq
	f.clearRetransmitted()
	f.stats.FastRecoveries++
	f.algo.OnLoss(LossEvent{
		Now:      now,
		Inflight: f.pipe(),
		MSS:      f.mss,
		RTT:      rtt,
		MinRTT:   f.minRTT,
	})
	f.armRTO()
}

// onTimeout handles an RTO: mark the entire outstanding window lost, apply
// the algorithm's timeout response, and restart repair from the oldest
// unacked byte (SACKed blocks are preserved and skipped).
func (f *Flow) onTimeout() {
	f.stats.Timeouts++
	f.dupAcks = 0
	f.clearRetransmitted()
	f.algo.OnLoss(LossEvent{
		Now:       f.sim.Now(),
		IsTimeout: true,
		Inflight:  f.pipe(),
		MSS:       f.mss,
		MinRTT:    f.minRTT,
	})
	f.inRecovery = true
	f.rtoRecovery = true
	f.recover = f.nextSeq
	f.markedLostUpTo = f.nextSeq
	f.nextSendAt = 0
	f.armRTO()
	f.trySend()
}

// updateRTT applies RFC 6298 smoothing.
func (f *Flow) updateRTT(rtt time.Duration) {
	if rtt <= 0 {
		return
	}
	if f.minRTT == 0 || rtt < f.minRTT {
		f.minRTT = rtt
	}
	f.stats.MinRTT = f.minRTT
	if f.srtt == 0 {
		f.srtt = rtt
		f.rttvar = rtt / 2
	} else {
		d := f.srtt - rtt
		if d < 0 {
			d = -d
		}
		f.rttvar = (3*f.rttvar + d) / 4
		f.srtt = (7*f.srtt + rtt) / 8
	}
	f.stats.SRTT = f.srtt
}

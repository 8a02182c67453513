package collector

import (
	"sync/atomic"
	"time"

	"starlinkview/internal/obs"
)

// Trace-driven load shedding: an admission controller in front of the
// ingest handler that, when the collector is demonstrably overloaded,
// sheds whole unsampled requests (429 + Retry-After) while always
// admitting sampled/forced traffic — the requests whose traceparent
// carries the sampled bit, i.e. exactly the ones someone is watching.
//
// Overload is judged by the same signals the observability stack already
// exports: the max shard-queue fill fraction and the interval p99 of
// ingest_ack_latency_seconds (cumulative bucket subtraction between
// evaluator ticks, the loadgen -scrape technique). A periodic evaluator
// runs the watermark state machine and publishes its decision through one
// atomic; the per-request admission cost while armed-but-idle is a single
// atomic load, which is how the <=1% ingest-overhead budget is met.
//
// State machine (evaluated every EvalInterval):
//
//	admit --(fill >= QueueHighPct)------------> shedding(queue_depth)
//	admit --(interval p99 >= AckLatencyP99)---> shedding(ack_latency)
//	shedding --(fill <= QueueLowPct AND p99 clear)--> admit
//
// Entry and exit use different watermarks (QueueLowPct defaults to half of
// QueueHighPct; the latency condition clears only below half the
// watermark), so the controller cannot flap at the threshold.

// ShedConfig arms the admission controller. The zero value disables it.
type ShedConfig struct {
	// QueueHighPct arms queue-depth shedding: when any shard queue's fill
	// fraction (depth / QueueLen) reaches this value in (0,1], unsampled
	// ingest requests are shed until the queues drain to QueueLowPct.
	QueueHighPct float64
	// QueueLowPct is the disarm watermark (default QueueHighPct/2).
	QueueLowPct float64
	// AckLatencyP99 arms latency shedding: when the p99 of the ack-latency
	// histogram over the last evaluation interval reaches this duration,
	// unsampled requests are shed until it falls below half the watermark.
	AckLatencyP99 time.Duration
	// EvalInterval is the evaluator tick (default 25ms).
	EvalInterval time.Duration
}

func (c *ShedConfig) normalize() {
	if c.QueueLowPct <= 0 || c.QueueLowPct > c.QueueHighPct {
		c.QueueLowPct = c.QueueHighPct / 2
	}
	if c.EvalInterval <= 0 {
		c.EvalInterval = 25 * time.Millisecond
	}
}

// armed reports whether any watermark is configured.
func (c ShedConfig) armed() bool { return c.QueueHighPct > 0 || c.AckLatencyP99 > 0 }

// Shed states, also the collector_shed_state gauge values.
const (
	shedAdmit int32 = iota
	shedQueueDepth
	shedAckLatency
)

var shedReasons = [...]string{shedQueueDepth: "queue_depth", shedAckLatency: "ack_latency"}

// shedder is the admission controller. Its metrics register only when a
// watermark is armed, so unarmed collectors expose exactly the series they
// always did.
type shedder struct {
	cfg ShedConfig
	agg *Aggregator

	// state is the evaluator's published decision; the ingest hot path
	// reads it with one atomic load.
	state atomic.Int32

	shedTotal   [len(shedReasons)]*obs.Counter // collector_shed_total{reason}
	stateGauge  *obs.Gauge                     // collector_shed_state
	transitions *obs.Counter                   // collector_shed_transitions_total

	// Previous ack-latency cumulative buckets, for interval p99.
	prevBounds []float64
	prevCum    []uint64

	stop chan struct{}
	done chan struct{}
}

func newShedder(a *Aggregator, cfg ShedConfig) *shedder {
	cfg.normalize()
	reg := a.cfg.Registry
	s := &shedder{
		cfg: cfg,
		agg: a,
		stateGauge: reg.Gauge("collector_shed_state",
			"Admission controller state: 0 admitting, 1 shedding on queue depth, 2 on ack latency."),
		transitions: reg.Counter("collector_shed_transitions_total",
			"Admission controller state transitions."),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	vec := reg.CounterVec("collector_shed_total",
		"Unsampled ingest requests shed by the admission controller, by trigger.", "reason")
	for st, reason := range shedReasons {
		if reason != "" {
			s.shedTotal[st] = vec.With(reason)
		}
	}
	return s
}

// admit is the hot path: one atomic load when the controller is idle. A
// true sampled bit always admits — shedding keeps the watched traffic.
func (s *shedder) admit(sampled bool) (reason string, ok bool) {
	st := s.state.Load()
	if st == shedAdmit || sampled {
		return "", true
	}
	s.shedTotal[st].Inc()
	return shedReasons[st], false
}

func (s *shedder) run() {
	defer close(s.done)
	t := time.NewTicker(s.cfg.EvalInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.eval()
		}
	}
}

// eval gathers the overload signals and runs one watermark decision.
func (s *shedder) eval() {
	p99, p99ok := s.intervalAckP99()
	s.apply(s.maxQueueFill(), p99, p99ok)
}

// apply is the watermark state machine on explicit signals; eval feeds it
// live ones, tests feed it synthetic ones.
func (s *shedder) apply(fill, p99 float64, p99ok bool) {
	cur := s.state.Load()
	next := cur
	if cur == shedAdmit {
		switch {
		case s.cfg.QueueHighPct > 0 && fill >= s.cfg.QueueHighPct:
			next = shedQueueDepth
		case s.cfg.AckLatencyP99 > 0 && p99ok && p99 >= s.cfg.AckLatencyP99.Seconds():
			next = shedAckLatency
		}
	} else {
		queueClear := s.cfg.QueueHighPct <= 0 || fill <= s.cfg.QueueLowPct
		ackClear := s.cfg.AckLatencyP99 <= 0 || !p99ok || p99 < s.cfg.AckLatencyP99.Seconds()/2
		if queueClear && ackClear {
			next = shedAdmit
		}
	}
	if next != cur {
		s.transitions.Inc()
	}
	s.state.Store(next)
	s.stateGauge.Set(float64(next))
}

// maxQueueFill is the worst shard queue's fill fraction. The max (not the
// mean) is the overload signal: one hot shard backpressures every batch
// that touches it under the Block policy.
func (s *shedder) maxQueueFill() float64 {
	var max float64
	for _, sh := range s.agg.shards {
		if f := float64(len(sh.ch)) / float64(s.agg.cfg.QueueLen); f > max {
			max = f
		}
	}
	return max
}

// intervalAckP99 estimates the ack-latency p99 over the last tick by
// cumulative bucket subtraction (obs.QuantileFromBucketDeltas). ok is false
// until two ticks have passed or when the interval saw no acks (a quiet
// collector is not overloaded).
func (s *shedder) intervalAckP99() (float64, bool) {
	bounds, cum := s.agg.met.ackLatency.Buckets()
	prevBounds, prevCum := s.prevBounds, s.prevCum
	s.prevBounds, s.prevCum = bounds, cum
	if len(prevBounds) != len(bounds) {
		return 0, false
	}
	return obs.QuantileFromBucketDeltas(0.99, bounds, cum, prevCum)
}

func (s *shedder) close() {
	close(s.stop)
	<-s.done
}

// Admit asks the admission controller whether ingest work with the given
// sampled bit may enter. Collectors with no shed watermarks always admit.
func (a *Aggregator) Admit(sampled bool) (reason string, ok bool) {
	if a.shed == nil {
		return "", true
	}
	return a.shed.admit(sampled)
}

// ShedState reports the controller's current state gauge value (0 when
// admitting or unarmed), for tests and tooling.
func (a *Aggregator) ShedState() int {
	if a.shed == nil {
		return 0
	}
	return int(a.shed.state.Load())
}

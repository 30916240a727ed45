package pipeline

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gdpn/internal/graph"
	"gdpn/internal/obs/span"
)

// This file is the continuous-streaming runtime, the engine's one
// execution path (Process is a stream submitted in full, then closed): a
// Stream keeps frames flowing while placements change and is engineered
// so that a live reconfiguration loses, duplicates, and reorders nothing.
//
// Mechanism. Frames travel the goroutine-per-processor chain as tokens
// that carry their stage progress (token.next = first logical stage not
// yet applied). When a placement arrives, the pump (1) flips the chain
// into draining mode — workers stop processing and pass tokens through
// untouched — and closes the head, so every in-flight token flushes out
// of the tail with its progress recorded; (2) installs the placement on
// the now-quiesced engine, keeping the last one if it is invalid; (3)
// requeues the unfinished tokens, oldest first, ahead of the backlog; and
// (4) rebuilds the chain over the new mapping, where each token resumes
// at exactly the stage it had reached.
// Because every stage processes frames in submission order exactly once,
// stateful stages (FIR, LZ78, …) stay bit-identical with an unfaulted
// run.
//
// Backpressure. Submit blocks when MaxPending frames are already queued —
// including for the whole of a remap stall — so a slow or paused pipeline
// pushes back on the producer instead of dropping. The sink checks
// sequence numbers against the exact submission order and counts any
// gap (lost), repeat (duplicated), or inversion (out-of-order); a clean
// run reports zeros and the pipeline_frame_loss gauge stays 0.

var (
	// ErrStreamActive is returned by StartStream when the engine already
	// has a live stream.
	ErrStreamActive = errors.New("pipeline: engine already has an active stream")
	// ErrStreamClosed is returned by Submit/ApplyPlacement after Close.
	ErrStreamClosed = errors.New("pipeline: stream is closed")
	// ErrBackpressure is returned by TrySubmit when the stream's intake is
	// full: the frame was NOT accepted and the producer decides whether to
	// retry, drop, or shed.
	ErrBackpressure = errors.New("pipeline: stream intake full")
)

// StreamConfig configures a Stream.
type StreamConfig struct {
	// MaxPending bounds the frames buffered ahead of the processor chain;
	// a full buffer blocks Submit (backpressure) rather than dropping.
	// Default 64.
	MaxPending int
}

const defaultMaxPending = 64

// StreamReport is the stream's end-to-end accounting. In a correct run
// Lost, Duplicated, and OutOfOrder are all zero and Delivered equals
// Submitted (after Close).
type StreamReport struct {
	// Submitted counts frames accepted by Submit.
	Submitted int64 `json:"submitted"`
	// Delivered counts frames emitted on Out.
	Delivered int64 `json:"delivered"`
	// Requeued counts in-flight frames handed back across remaps (a frame
	// surviving several remaps counts once per requeue).
	Requeued int64 `json:"requeued"`
	// Lost counts submitted frames that never reached the sink.
	Lost int64 `json:"lost"`
	// Duplicated counts sink arrivals with no matching submission.
	Duplicated int64 `json:"duplicated"`
	// OutOfOrder counts sink arrivals that did not strictly increase.
	OutOfOrder int64 `json:"out_of_order"`
	// Remaps counts successful live reconfigurations; RemapFailures the
	// rejected placements (structurally invalid segments).
	Remaps        int64 `json:"remaps"`
	RemapFailures int64 `json:"remap_failures"`
	// TotalDowntime/MaxDowntime measure the stall windows: drain → remap →
	// chain rebuilt, during which no frame makes progress.
	TotalDowntime time.Duration `json:"total_downtime_ns"`
	MaxDowntime   time.Duration `json:"max_downtime_ns"`
}

// Clean reports whether the stream kept the zero-loss invariant: every
// submitted frame delivered exactly once, in order.
func (r StreamReport) Clean() bool {
	return r.Lost == 0 && r.Duplicated == 0 && r.OutOfOrder == 0 && r.Submitted == r.Delivered
}

// token is a frame in flight, annotated with its stage progress so a
// drained frame can resume on a new mapping without repeating or skipping
// a stage. data's storage, up to its capacity, belongs to the token.
type token struct {
	seq  int
	next int // first logical stage index not yet applied
	data []float64
}

// chain is one incarnation of the goroutine-per-processor pipeline.
// Tokens travel it in recycled frameBatch carriers (see batch.go).
type chain struct {
	head     chan *frameBatch
	tail     chan *frameBatch
	draining atomic.Bool // workers pass batches through untouched when set
}

// remapReq asks the pump to install place; parent is the caller's remap
// span, under which the drain/requeue/rewire phases hang.
type remapReq struct {
	place  graph.Path
	parent *span.S
	reply  chan error
}

// Stream is a continuously running instance of the engine: frames go in
// via Submit, come out via Out in submission order, and new placements
// remap the pipeline live (route them through Engine.ApplyPlacement).
// Submit must be called with strictly increasing Frame.Seq, and must not
// race with Close; all other methods are safe for concurrent use.
type Stream struct {
	e           *Engine
	maxPending  int
	maxInflight int // frames admitted into the chain at once; grows with the placement

	submitc chan Frame
	outc    chan Frame
	remapc  chan remapReq
	closec  chan struct{} // closed by Close to start the shutdown flush
	donec   chan struct{}

	closeOnce sync.Once

	submitted, delivered, requeued atomic.Int64
	lost, duplicated, outOfOrder   atomic.Int64
	remaps, remapFailures          atomic.Int64
	totalDowntimeNS, maxDowntimeNS atomic.Int64

	// Pump-owned state (no locking: only the run goroutine touches it).
	// pending and expect are head-indexed rings: popping advances the head
	// instead of reslicing, so the steady state reuses the same backing
	// arrays instead of reallocating them.
	pending  []token // frames waiting to enter the chain; front = oldest
	pendHead int
	expect   []int // seqs submitted but not yet delivered, FIFO
	expHead  int
	staged   *frameBatch // batch being assembled from the pending front
	lastSeq  int         // last emitted seq, for the inversion check
	hasLast  bool
}

// StartStream switches the engine into continuous streaming. Only one
// stream may be active at a time; Close it before starting another or
// calling Process.
func (e *Engine) StartStream(cfg StreamConfig) (*Stream, error) {
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = defaultMaxPending
	}
	// Out is sized so that the whole population (pending backlog plus
	// chain occupancy, see maxInflight) fits; a slower consumer then
	// backpressures naturally through the chain to Submit.
	// submitc is buffered by one batch so a serial producer can run ahead
	// of the pump and real batches form; without it every submission is a
	// rendezvous and batches leave the head mostly single-frame.
	maxInflight := e.maxInflight()
	s := &Stream{
		e:           e,
		maxPending:  cfg.MaxPending,
		maxInflight: maxInflight,
		submitc:     make(chan Frame, e.batchSize),
		outc:        make(chan Frame, cfg.MaxPending+maxInflight),
		remapc:      make(chan remapReq),
		closec:      make(chan struct{}),
		donec:       make(chan struct{}),
	}
	if !e.stream.CompareAndSwap(nil, s) {
		return nil, ErrStreamActive
	}
	e.sizeFreeLists(cfg.MaxPending, maxInflight, cap(s.outc))
	go s.run()
	return s, nil
}

// Submit queues one frame, blocking while the pending buffer is full —
// including for the whole of a remap stall — and never dropping. Frames
// must carry strictly increasing Seq.
//
// Submit transfers ownership of f.Data to the stream: the buffer travels
// with the frame to the consumer and must not be retained or reused by
// the producer. Lease submission buffers with Engine.GetBuffer (and
// return delivered ones with Engine.Recycle) to stream without per-frame
// allocations.
func (s *Stream) Submit(f Frame) error {
	// Checked first: submitc is buffered, so after the pump exits a send
	// could otherwise succeed silently and strand the frame.
	select {
	case <-s.donec:
		return ErrStreamClosed
	default:
	}
	select {
	case s.submitc <- f:
		return nil
	case <-s.donec:
		return ErrStreamClosed
	}
}

// TrySubmit queues one frame like Submit but never blocks: when the
// stream's intake is full (the pump has stopped accepting under
// backpressure and the submit buffer is exhausted) it returns
// ErrBackpressure and the frame is NOT accepted — ownership of f.Data
// stays with the caller. The control plane uses it to shed low-SLO-class
// tenants' traffic instead of stalling their producers.
func (s *Stream) TrySubmit(f Frame) error {
	select {
	case <-s.donec:
		return ErrStreamClosed
	default:
	}
	select {
	case s.submitc <- f:
		return nil
	case <-s.donec:
		return ErrStreamClosed
	default:
		return ErrBackpressure
	}
}

// Out returns the delivery channel. Frames appear in submission order;
// the channel closes after Close has flushed everything.
func (s *Stream) Out() <-chan Frame { return s.outc }

// Close ends the stream: the backlog and every in-flight frame are
// flushed through the pipeline, Out is closed, and the final report is
// returned. Idempotent. submitc itself is never closed — a Submit racing
// or following Close parks on the channel until the pump exits and then
// returns ErrStreamClosed, instead of panicking on a closed send.
func (s *Stream) Close() StreamReport {
	s.closeOnce.Do(func() { close(s.closec) })
	<-s.donec
	s.e.stream.CompareAndSwap(s, nil)
	return s.Report()
}

// Report returns a snapshot of the stream's accounting; after Close it is
// the final report.
func (s *Stream) Report() StreamReport {
	return StreamReport{
		Submitted:     s.submitted.Load(),
		Delivered:     s.delivered.Load(),
		Requeued:      s.requeued.Load(),
		Lost:          s.lost.Load(),
		Duplicated:    s.duplicated.Load(),
		OutOfOrder:    s.outOfOrder.Load(),
		Remaps:        s.remaps.Load(),
		RemapFailures: s.remapFailures.Load(),
		TotalDowntime: time.Duration(s.totalDowntimeNS.Load()),
		MaxDowntime:   time.Duration(s.maxDowntimeNS.Load()),
	}
}

// remap asks the pump to install a new placement segment between frames
// and returns the engine's verdict on it.
func (s *Stream) remap(seg graph.Path, parent *span.S) error {
	req := remapReq{place: seg, parent: parent, reply: make(chan error, 1)}
	select {
	case s.remapc <- req:
		return <-req.reply
	case <-s.donec:
		return ErrStreamClosed
	}
}

// pendingLen / expectLen are the live lengths of the head-indexed rings.
func (s *Stream) pendingLen() int { return len(s.pending) - s.pendHead }
func (s *Stream) expectLen() int  { return len(s.expect) - s.expHead }

// pushPending appends a token, compacting the ring first when append
// would otherwise grow the backing array past dead head entries.
func (s *Stream) pushPending(t token) {
	if s.pendHead > 0 && len(s.pending) == cap(s.pending) {
		n := copy(s.pending, s.pending[s.pendHead:])
		clear(s.pending[n:])
		s.pending = s.pending[:n]
		s.pendHead = 0
	}
	s.pending = append(s.pending, t)
}

func (s *Stream) pushExpect(seq int) {
	if s.expHead > 0 && len(s.expect) == cap(s.expect) {
		n := copy(s.expect, s.expect[s.expHead:])
		s.expect = s.expect[:n]
		s.expHead = 0
	}
	s.expect = append(s.expect, seq)
}

// dropPending removes the n oldest pending tokens (they entered the
// chain), resetting the ring when it empties.
func (s *Stream) dropPending(n int) {
	s.pendHead += n
	if s.pendHead == len(s.pending) {
		clear(s.pending)
		s.pending = s.pending[:0]
		s.pendHead = 0
	}
}

// accept takes ownership of one submitted frame.
func (s *Stream) accept(f Frame) {
	s.pushPending(token{seq: f.Seq, data: f.Data})
	s.pushExpect(f.Seq)
	s.submitted.Add(1)
}

// drainSubmitc non-blockingly accepts buffered submissions; bound caps
// the pending backlog (0 = drain everything, as at close).
func (s *Stream) drainSubmitc(bound int) {
	for bound == 0 || s.pendingLen() < bound {
		select {
		case f := <-s.submitc:
			s.accept(f)
		default:
			return
		}
	}
}

// stageBatch assembles (or refreshes) the batch offered to the chain head
// from the front of the pending ring. The carrier is rebuilt each loop
// iteration, so a remap or new submission between offers never leaves a
// stale token staged.
func (s *Stream) stageBatch(n int) *frameBatch {
	if s.staged == nil {
		s.staged = s.e.getBatch()
	}
	if n > s.e.batchSize {
		n = s.e.batchSize
	}
	s.staged.toks = append(s.staged.toks[:0], s.pending[s.pendHead:s.pendHead+n]...)
	return s.staged
}

// run is the pump: the single goroutine that feeds the chain head, drains
// the tail, and serializes remaps against frame movement.
func (s *Stream) run() {
	defer close(s.donec)
	e := s.e
	c := e.newChain()
	inflight := 0
	closing := false
	closec := s.closec
	for {
		if closing && s.pendingLen() == 0 && inflight == 0 {
			break
		}
		var headc chan *frameBatch
		var nb *frameBatch
		if n := s.pendingLen(); n > 0 && inflight < s.maxInflight {
			nb = s.stageBatch(n)
			headc = c.head
		}
		submitc := s.submitc
		if closing || s.pendingLen() >= s.maxPending {
			submitc = nil // backpressure: stop accepting until the backlog drains
		}
		select {
		case <-closec:
			closing = true
			closec = nil // take this branch once
			// Submissions buffered in submitc were accepted (Submit returned
			// nil) before Close; drain and account them so none strands.
			s.drainSubmitc(0)
		case f := <-submitc:
			s.accept(f)
			// Greedily drain what the producer buffered meanwhile, so the
			// next staged batch reflects the real backlog.
			s.drainSubmitc(s.maxPending)
		case headc <- nb:
			n := len(nb.toks)
			s.dropPending(n)
			inflight += n
			s.staged = nil // ownership moved to the chain
			e.batchOcc.Observe(int64(n))
		case b := <-c.tail:
			inflight -= len(b.toks)
			for i := range b.toks {
				s.emit(b.toks[i])
			}
			e.putBatch(b)
		case req := <-s.remapc:
			c = s.handleRemap(c, &inflight, req)
		}
	}
	if s.staged != nil {
		e.putBatch(s.staged)
		s.staged = nil
	}
	close(c.head)
	for range c.tail {
		// inflight is zero, so nothing should arrive; drain defensively so
		// the workers can always exit.
	}
	// Anything still expected was never delivered: lost (zero when clean).
	s.lost.Add(int64(s.expectLen()))
	s.e.frameLoss.Set(int64(s.expectLen()))
	if n := s.expectLen(); n > 0 {
		span.Trip(span.AnomalyFrameLoss, fmt.Sprintf("stream closed with %d undelivered frames", n))
	}
	close(s.outc)
}

// handleRemap is the zero-loss live reconfiguration: drain, install the
// placement (or keep the old one), requeue, rebuild. Returns the new chain.
func (s *Stream) handleRemap(c *chain, inflight *int, req remapReq) *chain {
	e := s.e
	start := time.Now()
	// 1. Drain: stop processing and flush every in-flight token out of the
	// old mapping with its progress recorded.
	drain := span.Start(req.parent, "drain")
	drained := *inflight
	c.draining.Store(true)
	close(c.head)
	// In-flight batches explode back to individual frames here: each token
	// already carries its stage progress, so batching is invisible to the
	// drain/requeue contract.
	var requeue []token
	for b := range c.tail {
		*inflight -= len(b.toks)
		for i := range b.toks {
			t := b.toks[i]
			if t.next >= len(e.stages) {
				s.emit(t) // finished before the drain caught it
			} else {
				requeue = append(requeue, t)
			}
		}
		e.putBatch(b)
	}
	// Tokens leave the chain oldest-first already; sort defensively — the
	// requeue MUST resume in submission order or stateful stages corrupt.
	sort.Slice(requeue, func(i, j int) bool { return requeue[i].seq < requeue[j].seq })
	drain.SetInt("inflight", int64(drained)).SetInt("unfinished", int64(len(requeue)))
	drain.End(span.OK)
	// 2. Install on the quiesced engine. On error (an invalid segment) the
	// previous mapping is still in place and the chain below simply
	// restarts over it. A longer placement raises the in-flight bound, and
	// the free lists grow to hold the larger population; the bound never
	// shrinks within a stream, so the lists always cover its peak.
	err := e.applyPlace(req.place, req.parent)
	if err != nil {
		s.remapFailures.Add(1)
	} else {
		s.remaps.Add(1)
		if n := e.maxInflight(); n > s.maxInflight {
			s.maxInflight = n
			e.sizeFreeLists(s.maxPending, n, cap(s.outc))
		}
	}
	// 3. Requeue unfinished frames ahead of the backlog.
	rq := span.Start(req.parent, "requeue")
	if len(requeue) > 0 {
		live := s.pending[s.pendHead:]
		np := make([]token, 0, len(requeue)+len(live))
		np = append(np, requeue...)
		np = append(np, live...)
		s.pending, s.pendHead = np, 0
		s.requeued.Add(int64(len(requeue)))
		e.framesRequeued.Add(int64(len(requeue)))
	}
	rq.SetInt("frames", int64(len(requeue)))
	rq.End(span.OK)
	// 4. Rebuild the chain over the (possibly rolled-back) mapping.
	rw := span.Start(req.parent, "rewire")
	nc := e.newChain()
	rw.SetInt("positions", int64(len(e.assign)))
	rw.End(span.OK)
	d := time.Since(start)
	s.totalDowntimeNS.Add(int64(d))
	for {
		cur := s.maxDowntimeNS.Load()
		if int64(d) <= cur || s.maxDowntimeNS.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
	e.remapDowntime.ObserveDuration(d)
	// With the chain empty every undelivered frame must be queued; the
	// difference is the loss gauge, and it must read zero.
	loss := int64(s.expectLen() - s.pendingLen())
	e.frameLoss.Set(loss)
	req.parent.SetInt("downtime_ns", int64(d))
	if loss > 0 {
		span.Trip(span.AnomalyFrameLoss, fmt.Sprintf("remap audit: %d frames unaccounted for", loss))
	}
	req.reply <- err
	return nc
}

// emit delivers one finished token, checking it against the exact
// submission order: any gap is loss, any unmatched arrival duplication,
// any non-increasing seq an inversion.
func (s *Stream) emit(t token) {
	if s.hasLast && t.seq <= s.lastSeq {
		s.outOfOrder.Add(1)
	}
	s.hasLast, s.lastSeq = true, t.seq
	matched := false
	for s.expHead < len(s.expect) && s.expect[s.expHead] <= t.seq {
		if s.expect[s.expHead] == t.seq {
			s.expHead++
			matched = true
			break
		}
		s.expHead++
		s.lost.Add(1)
		span.Trip(span.AnomalyFrameLoss, fmt.Sprintf("sink audit: gap before seq %d", t.seq))
	}
	if s.expHead == len(s.expect) {
		s.expect, s.expHead = s.expect[:0], 0
	}
	if !matched {
		s.duplicated.Add(1)
		span.Trip(span.AnomalyFrameLoss, fmt.Sprintf("sink audit: unmatched arrival seq %d", t.seq))
	}
	s.delivered.Add(1)
	s.e.frames.Add(1)
	s.e.framesTotal.Add(1)
	// The consumer owns the delivered buffer from here (Engine.Recycle
	// returns it to the free list).
	s.outc <- Frame{Seq: t.seq, Data: t.data}
}

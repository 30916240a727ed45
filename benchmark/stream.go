package main

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gdpn/internal/construct"
	"gdpn/internal/embed"
	"gdpn/internal/obs"
	"gdpn/internal/pipeline"
	"gdpn/internal/stages"
	"gdpn/internal/workload"
)

// The stream workload: one fault-free placed engine over all 15
// processors of G(12,3), running the S3 chain on 64-sample frames. One
// producer leases buffers and submits; one consumer drains Out, hashes
// each frame and recycles it. The loop is closed: Submit blocks once
// MaxPending frames are queued, so at most MaxPending plus the chain's
// in-flight bound are outstanding. Small frames and no LZ78 keep the run
// bound by the channel hop and the buffer pool, with no solver or remap.
const (
	streamFrameSamples = 64
	streamTemplates    = 256 // distinct input frames, cycled by seq
	streamWarmupFrames = 300_000
	streamMaxPending   = 64
	streamBlock        = 256 // frames submitted between clock checks
	// stampMask sizes the submit-time ring; it must exceed the most frames
	// that can be outstanding (submit buffer + MaxPending + in-flight + Out).
	stampMask = 1<<14 - 1
)

// streamChain is the S3 chain: no LZ78, whose dictionary is stage compute
// rather than transport.
func streamChain() []stages.Stage {
	return []stages.Stage{
		stages.NewSubsample(2),
		&stages.Rescale{Gain: 1.5, Offset: 0.1},
		stages.NewFIR([]float64{0.25, 0.5, 0.25}),
		stages.NewQuantize(-16, 16, 256),
	}
}

func streamInputs(seed int64) [][]float64 {
	gen := workload.Video(streamFrameSamples/4, seed)
	out := make([][]float64, streamTemplates)
	for i := range out {
		out[i] = make([]float64, streamFrameSamples)
		workload.Fill(gen, out[i])
	}
	return out
}

type streamRig struct {
	eng    *pipeline.Engine
	st     *pipeline.Stream
	inputs [][]float64
	traced bool

	// Producer-owned.
	next     int64
	submitNS int64

	stamps    []atomic.Int64 // submit start time, by seq & stampMask
	timedFrom atomic.Int64   // first seq whose latency is recorded
	delivered atomic.Int64
	target    atomic.Int64
	mu        sync.Mutex
	reached   *sync.Cond // delivered reached target

	// Consumer-owned; read by the producer once delivered reaches what it
	// submitted (the atomic counter orders the accesses).
	hash      uint64
	outOfSeq  int64
	outWaitNS int64
	hist      *latHist
	done      chan struct{}
}

func newStreamRig(inputs [][]float64, traced bool) (*streamRig, error) {
	sol, err := construct.Design(12, 3)
	if err != nil {
		return nil, err
	}
	res := embed.NewSolver(sol.Graph, embed.Options{Layout: sol.Layout}).Find(nil)
	if !res.Found {
		return nil, fmt.Errorf("no fault-free pipeline in %s", sol.Graph.Name())
	}
	eng, err := pipeline.NewPlaced(sol.Graph, res.Pipeline[1:len(res.Pipeline)-1], streamChain())
	if err != nil {
		return nil, err
	}
	st, err := eng.StartStream(pipeline.StreamConfig{MaxPending: streamMaxPending})
	if err != nil {
		return nil, err
	}
	s := &streamRig{
		eng: eng, st: st, inputs: inputs, traced: traced,
		stamps: make([]atomic.Int64, stampMask+1),
		hash:   fnvInit,
		hist:   newLatHist(),
		done:   make(chan struct{}),
	}
	s.timedFrom.Store(math.MaxInt64)
	s.target.Store(math.MaxInt64)
	s.reached = sync.NewCond(&s.mu)
	go s.consume()
	return s, nil
}

func (s *streamRig) consume() {
	defer close(s.done)
	out := s.st.Out()
	var want int64
	for {
		var w0 int64
		if s.traced {
			w0 = nanotime()
		}
		f, ok := <-out
		if !ok {
			return
		}
		now := nanotime()
		if s.traced {
			s.outWaitNS += now - w0
		}
		seq := int64(f.Seq)
		if seq != want {
			s.outOfSeq++
		}
		want = seq + 1
		if seq >= s.timedFrom.Load() {
			s.hist.add(now - s.stamps[seq&stampMask].Load())
		}
		s.hash = hashFrame(s.hash, f.Data)
		s.eng.Recycle(f)
		if s.delivered.Add(1) == s.target.Load() {
			s.mu.Lock()
			s.reached.Broadcast()
			s.mu.Unlock()
		}
	}
}

// submit sends one frame; false after a failed Submit.
func (s *streamRig) submit(r *run) bool {
	seq := s.next
	d := s.eng.GetBuffer(streamFrameSamples)
	copy(d, s.inputs[seq%int64(len(s.inputs))])
	t := nanotime()
	s.stamps[seq&stampMask].Store(t)
	err := s.st.Submit(pipeline.Frame{Seq: int(seq), Data: d})
	if s.traced {
		s.submitNS += nanotime() - t
	}
	if err != nil {
		r.fail("stream: submit seq %d: %v", seq, err)
		return false
	}
	s.next++
	return true
}

// wait blocks until the consumer has received every submitted frame.
func (s *streamRig) wait() {
	s.mu.Lock()
	s.target.Store(s.next)
	for s.delivered.Load() < s.next {
		s.reached.Wait()
	}
	s.mu.Unlock()
}

// close ends the stream and checks the sink audit and the output hash
// against the sequential reference.
func (s *streamRig) close(r *run, refs map[int64]uint64) {
	rep := s.st.Close()
	<-s.done
	r.check(rep.Clean() && rep.Delivered == s.next && s.outOfSeq == 0,
		"stream: not clean: submitted=%d delivered=%d lost=%d dup=%d out-of-sequence=%d", s.next, rep.Delivered, rep.Lost, rep.Duplicated, s.outOfSeq)
	want, ok := refs[s.next]
	if !ok {
		want = streamRefHash(s.inputs, s.next)
		refs[s.next] = want
	}
	r.check(s.hash == want, "stream: hash of %d delivered frames %x, sequential reference %x", s.next, s.hash, want)
}

func runStream(cfg config, r *run) e2e {
	inputs := streamInputs(cfg.seed)
	refs := map[int64]uint64{}
	if cfg.traced {
		// The fault-free stream finishes no program spans; the collector
		// still accounts for any in obs.spans_dropped.
		defer collect(nil).finish()
	}
	var setups []float64
	var s *streamRig
	for i := 0; i < cfg.setups; i++ {
		t0 := time.Now()
		rig, err := newStreamRig(inputs, cfg.traced)
		if err != nil {
			r.fail("stream: set-up: %v", err)
			return nil
		}
		for rig.next < streamWarmupFrames && rig.submit(r) {
		}
		rig.wait()
		setups = append(setups, time.Since(t0).Seconds())
		if i < cfg.setups-1 {
			rig.close(r, refs)
		} else {
			s = rig
		}
	}

	reg := obs.Default()
	stageNS, stall, occ := reg.Histogram("pipeline_stage_ns"), reg.Histogram("pipeline_send_stall_ns"), reg.Histogram("pipeline_batch_occupancy")
	stage0, stall0, stallN0, occ0, occN0 := stageNS.Sum(), stall.Sum(), stall.Count(), occ.Sum(), occ.Count()
	_, miss0 := s.eng.PoolStats()
	var malloc0 uint64
	if cfg.traced {
		malloc0 = mallocs()
	}
	first := s.next
	s.timedFrom.Store(first)
	cpu0, t0 := cpuTime(), nanotime()
	ok := true
	for ok && nanotime()-t0 < int64(cfg.window) {
		for i := 0; i < streamBlock && ok; i++ {
			ok = s.submit(r)
		}
	}
	s.wait()
	elapsed := time.Duration(nanotime() - t0)
	cpu := cpuTime() - cpu0
	frames := s.next - first
	r.attempted += frames
	var allocs uint64
	if cfg.traced {
		allocs = mallocs() - malloc0
	}
	_, miss1 := s.eng.PoolStats()
	heap := liveHeapMB()
	busyPositions := 0
	for pos := range s.eng.Pipeline() {
		if len(s.eng.StagesOn(pos)) > 0 {
			busyPositions++
		}
	}
	s.close(r, refs)

	m := e2e{
		"setup_s":         {median(setups), "s"},
		"items_per_s":     {float64(frames) / elapsed.Seconds(), "1/s"},
		"latency_p50_ms":  {s.hist.quantile(0.5) / 1e6, "ms"},
		"latency_p99_ms":  {s.hist.quantile(0.99) / 1e6, "ms"},
		"cpu_us_per_item": {float64(cpu.Microseconds()) / float64(max(frames, 1)), "us"},
		"live_heap_mb":    {heap, "MB"},
	}
	if cfg.traced {
		n := float64(max(frames, 1))
		r.layer("pipeline.submit_wait_us", float64(s.submitNS)/1e3/float64(s.next), "us")
		r.layer("pipeline.out_wait_us", float64(s.outWaitNS)/1e3/float64(s.next), "us")
		r.layer("pipeline.batch_occupancy", float64(occ.Sum()-occ0)/float64(max(occ.Count()-occN0, 1)), "frames")
		r.layer("pipeline.send_stall_us", float64(stall.Sum()-stall0)/1e3/float64(max(stall.Count()-stallN0, 1)), "us")
		r.layer("pipeline.stage_busy_share", float64(stageNS.Sum()-stage0)/(float64(elapsed)*float64(max(busyPositions, 1))), "ratio")
		r.layer("pipeline.pool_miss_per_frame", float64(miss1-miss0)/n, "count")
		r.layer("pipeline.allocs_per_frame", float64(allocs)/n, "count")
		chain := streamChainTime(inputs, min(frames, 200_000))
		frame := float64(elapsed) / 1e3 / n
		r.layer("stages.chain_us_per_frame.stream", chain, "us")
		r.layer("sum.stream.frame_us", frame, "us")
		r.layer("sum.stream.transport_us", frame-chain, "us")
	}
	return m
}

// streamRefHash runs a fresh stream chain sequentially over frames seq
// 0..n-1 and hashes the outputs as the consumer does. The inputs repeat
// with period P = len(inputs), and the chain's only state (FIR history,
// subsample phase) follows its input, so from frame P on the outputs
// repeat with period P too. The chain runs over three periods; when the
// third repeats the second, the rest of the outputs are taken from the
// second period instead of being recomputed, which keeps the reference
// for a full window at a few hashes per frame. Otherwise every frame goes
// through the chain.
func streamRefHash(inputs [][]float64, n int64) uint64 {
	p := int64(len(inputs))
	chain := streamChain()
	buf := make([]float64, streamFrameSamples)
	outs := make([][]float64, 0, 3*p)
	for seq := int64(0); seq < 3*p; seq++ {
		copy(buf, inputs[seq%p])
		data := buf
		for _, st := range chain {
			data = st.Process(data)
		}
		outs = append(outs, append([]float64(nil), data...))
	}
	periodic := true
	for i := p; i < 2*p && periodic; i++ {
		periodic = slices.Equal(outs[i], outs[i+p]) // bitwise: quantized, no NaN
	}
	h := fnvInit
	for seq := int64(0); seq < n; seq++ {
		switch {
		case seq < 3*p:
			h = hashFrame(h, outs[seq])
		case periodic:
			h = hashFrame(h, outs[p+seq%p])
		default:
			copy(buf, inputs[seq%p])
			data := buf
			for _, st := range chain {
				data = st.Process(data)
			}
			h = hashFrame(h, data)
		}
	}
	return h
}

// streamChainTime is the sequential cost of the stream chain per frame in
// µs: copy the input into a frame buffer, then run every stage, as one
// pipeline position holding the whole chain would.
func streamChainTime(inputs [][]float64, n int64) float64 {
	chain := streamChain()
	buf := make([]float64, streamFrameSamples)
	s := time.Now()
	for seq := int64(0); seq < n; seq++ {
		copy(buf, inputs[seq%int64(len(inputs))])
		data := buf
		for _, st := range chain {
			data = st.Process(data)
		}
	}
	return float64(time.Since(s)) / 1e3 / float64(max(n, 1))
}

// FNV-1a over the samples' bit patterns, 64 bits at a time, chained across
// frames in delivery order.
const (
	fnvInit  uint64 = 14695981039346656037
	fnvPrime uint64 = 1099511628211
)

func hashFrame(h uint64, data []float64) uint64 {
	for _, v := range data {
		h ^= math.Float64bits(v)
		h *= fnvPrime
	}
	h ^= uint64(len(data))
	return h * fnvPrime
}

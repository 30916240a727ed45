package main

import (
	"sync"
	"time"

	"gdpn/internal/obs/span"
	"gdpn/internal/plan"
)

// spansDropped counts finished spans that left the tracer's ring before a
// collector read them, over every traced pass of the run.
var spansDropped int64

// collector reads finished spans out of the process-wide tracer's ring
// without losing any, as long as it polls before the ring wraps: a traced
// proof finishes one solve span per fault set, far more than the ring
// holds. The ring keeps finished spans in push order and span IDs are
// unique, so the spans after the last one seen are exactly the new ones;
// when that span has been evicted, everything in the ring is new and the
// spans evicted in between are lost. finish counts the loss exactly, from
// the tracer's own push accounting, once nothing is pushing any more.
type collector struct {
	mu     sync.Mutex
	lastID uint64
	seen   int64
	spans  []span.Span
	// each, when set, consumes spans instead of keeping them.
	each func(span.Span)

	stop, done chan struct{}
	once       sync.Once
}

// collectEvery is the polling period: at the sweep's span rate (about
// 10^5 spans/s on two cores) the 4096-span ring wraps in about 40 ms.
const collectEvery = 10 * time.Millisecond

// collect polls the ring from now until finish. The ring must have been
// reset at the start of the pass (setTracing). each, when non-nil,
// receives every span on the polling goroutine instead of it being kept.
func collect(each func(span.Span)) *collector {
	c := &collector{each: each, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		tk := time.NewTicker(collectEvery)
		defer tk.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-tk.C:
				c.poll()
			}
		}
	}()
	return c
}

func (c *collector) poll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := span.Default().Snapshot()
	start := 0
	if c.lastID != 0 {
		for i := len(snap) - 1; i >= 0; i-- {
			if snap[i].ID == c.lastID {
				start = i + 1
				break
			}
		}
	}
	for _, sp := range snap[start:] {
		if c.each != nil {
			c.each(sp)
		} else {
			c.spans = append(c.spans, sp)
		}
	}
	c.seen += int64(len(snap) - start)
	if len(snap) > 0 {
		c.lastID = snap[len(snap)-1].ID
	}
}

// finish stops polling, reads the remaining spans and adds any lost ones
// to spansDropped; calls after the first do nothing. Every span of the
// pass must have finished. The caller owns spans from here on.
func (c *collector) finish() {
	c.once.Do(func() {
		close(c.stop)
		<-c.done
		c.poll()
		pushed := int64(len(span.Default().Snapshot())) + int64(span.Default().Dropped())
		spansDropped += pushed - c.seen
	})
}

// spanTree indexes collected spans by parent, for self times.
type spanTree struct {
	spans    []span.Span
	children map[uint64][]span.Span
}

func newSpanTree(spans []span.Span) *spanTree {
	t := &spanTree{spans: spans, children: map[uint64][]span.Span{}}
	for _, sp := range spans {
		if sp.Parent != 0 {
			t.children[sp.Parent] = append(t.children[sp.Parent], sp)
		}
	}
	return t
}

// self is the span's duration minus the time its direct children cover.
func (t *spanTree) self(sp span.Span) time.Duration {
	d := sp.Duration()
	for _, c := range t.children[sp.ID] {
		d -= c.Duration()
	}
	return d
}

// stageKernels times every stage of the churn tenants' chains, run
// sequentially on one goroutine over the workload's frames: per kind the
// cost per input sample, and the whole chains' cost per frame.
func stageKernels(r *run, topo *plan.Topology, inputs [][][]float64) {
	const frames = 2048 // per tenant
	ns := map[string]int64{}
	samples := map[string]int64{}
	var total int64
	for t := range topo.Tenants {
		chain, err := topo.Tenants[t].BuildStages()
		if err != nil {
			r.fail("stages: %v", err)
			return
		}
		buf := make([]float64, topo.Tenants[t].FrameSamples)
		for i := 0; i < frames; i++ {
			copy(buf, inputs[t][i%len(inputs[t])])
			data := buf
			for j, st := range chain {
				kind := topo.Tenants[t].Stages[j].Kind
				s := nanotime()
				out := st.Process(data)
				d := nanotime() - s
				ns[kind] += d
				samples[kind] += int64(len(data))
				total += d
				data = out
			}
		}
	}
	for _, kind := range stageKinds {
		r.check(samples[kind] > 0, "stages: no %s stage in the churn tenants", kind)
		r.layer("stages."+kind+".ns_per_sample", float64(ns[kind])/float64(max(samples[kind], 1)), "ns")
	}
	r.layer("stages.chain_us_per_frame.churn", float64(total)/1e3/float64(frames*len(topo.Tenants)), "us")
}

var stageKinds = []string{"subsample", "rescale", "fir", "quantize", "lz78", "moving_average"}

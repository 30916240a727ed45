package pipeline

// This file is the zero-allocation batched transport: frames move
// through the goroutine-per-processor chain in recycled frameBatch
// carriers instead of one channel send per frame per stage, and sample
// buffers come from (and return to) one engine-owned bounded free list.
// In steady state — producer leasing buffers with GetBuffer, consumer
// returning them with Recycle — the per-frame path performs zero heap
// allocations, and that producer/consumer pair is the list's only
// traffic.
//
// Buffer lifecycle (the ownership rules; see DESIGN.md §12):
//
//   - Stream.Submit transfers ownership of Frame.Data to the stream: the
//     token carries that storage through the chain and hands it to the
//     consumer, so producers must not retain a submitted slice.
//     Process copies each input into a leased buffer before submitting
//     it, so its callers may reuse the same input frames across calls.
//   - Stage outputs alias per-stage scratch, so a worker copies each
//     processed frame back into the token's own buffer, leasing a larger
//     one only when the frame grows (an FFT doubles it).
//   - Frames handed to the consumer (Stream.Out / Process return) own
//     their buffer. Returning it via Engine.Recycle closes the loop;
//     dropping it instead is safe but costs one miss later.

import "time"

// Transport tuning defaults. DefaultChannelDepth preserves the chain's
// historical hardcoded depth (make(chan …, 4)).
const (
	DefaultBatchSize    = 8
	DefaultChannelDepth = 4
	maxBatchSize        = 1024
)

// Option tunes an Engine at construction time.
type Option func(*Engine)

// WithBatchSize sets how many frames ride one chain send (default
// DefaultBatchSize, clamped to [1, 1024]). 1 reproduces the per-frame
// transport. Values <= 0 are ignored so zero-valued configs keep the
// default.
func WithBatchSize(n int) Option {
	return func(e *Engine) {
		if n > maxBatchSize {
			n = maxBatchSize
		}
		if n >= 1 {
			e.batchSize = n
		}
	}
}

// WithChannelDepth sets the per-position channel buffer, in batches
// (default DefaultChannelDepth — the old hardcoded depth). Values <= 0
// are ignored.
func WithChannelDepth(d int) Option {
	return func(e *Engine) {
		if d >= 1 {
			e.chanDepth = d
		}
	}
}

// freeList is a bounded free list: a buffered channel whose capacity is
// the most items the owner can have outstanding at once, so a recycling
// loop never overflows it. get and put never block — an empty list
// reports a miss, and a put into a full list drops the item to the GC.
type freeList[T any] chan T

func (l freeList[T]) get() (v T, ok bool) {
	select {
	case v = <-l:
		return v, true
	default:
		return v, false
	}
}

func (l freeList[T]) put(v T) {
	select {
	case l <- v:
	default:
	}
}

// freeLists holds the engine's recycled sample buffers and batch
// carriers. Both share one capacity: a batch carries at least one
// frame, so batches outstanding never exceed frames outstanding.
type freeLists struct {
	bufs    freeList[[]float64]
	batches freeList[*frameBatch]
}

// sizeFreeLists gives the engine free lists able to hold every frame a
// stream can have outstanding: one in the producer's hand, the submit
// buffer, the pending backlog, the chain's in-flight bound (admission
// stops at maxInflight, but the last batch admitted may carry batchSize
// more), the Out buffer and one in the consumer's hand. Lists of the
// right capacity are kept, contents and all.
func (e *Engine) sizeFreeLists(maxPending, maxInflight, outCap int) {
	n := 1 + e.batchSize + maxPending + maxInflight + e.batchSize + outCap + 1
	if l := e.free.Load(); l != nil && cap(l.bufs) == n {
		return
	}
	e.free.Store(&freeLists{
		bufs:    make(freeList[[]float64], n),
		batches: make(freeList[*frameBatch], n),
	})
}

// maxInflight is the in-flight bound for the current placement: two
// batches per chain position (the engine's own processors plus the
// tail), enough to keep every worker busy while keeping the population
// (and so the Out buffer and free lists sized from it) small and
// independent of the channel depth and of the pool's size.
func (e *Engine) maxInflight() int {
	return 2 * (len(e.path) + 1) * e.batchSize
}

// GetBuffer leases an n-sample buffer from the engine's free list,
// reusing recycled storage when the next free buffer is large enough.
// Pairing it with Recycle on delivered frames makes a producer/consumer
// loop allocation-free in steady state. The buffer is ordinary memory —
// there is no obligation to submit it. Hits and misses always count (the
// engine's own accounting, read by tests and the S3 experiment); the obs
// counters cost one atomic load when disabled.
func (e *Engine) GetBuffer(n int) []float64 {
	if d, ok := e.free.Load().bufs.get(); ok && cap(d) >= n {
		e.poolHits.Add(1)
		e.poolHitC.Inc()
		return d[:n]
	}
	e.poolMisses.Add(1)
	e.poolMissC.Inc()
	return make([]float64, n)
}

// Recycle returns a delivered frame's buffer, whole capacity included,
// to the engine's free list. Only the consumer that received the frame
// may call it, and the slice must not be used afterwards.
func (e *Engine) Recycle(f Frame) {
	if cap(f.Data) > 0 {
		e.free.Load().bufs.put(f.Data[:cap(f.Data)])
	}
}

// PoolStats returns the free list's lifetime hit and miss counts (also
// exported as pipeline_pool_total{result="hit"|"miss"}).
func (e *Engine) PoolStats() (hits, misses int64) {
	return e.poolHits.Load(), e.poolMisses.Load()
}

// frameBatch carries up to Engine.batchSize tokens per chain send,
// amortizing channel synchronization across the whole batch.
type frameBatch struct {
	toks []token
}

func (e *Engine) getBatch() *frameBatch {
	if b, ok := e.free.Load().batches.get(); ok {
		return b
	}
	return &frameBatch{toks: make([]token, 0, e.batchSize)}
}

func (e *Engine) putBatch(b *frameBatch) {
	if b == nil {
		return
	}
	clear(b.toks) // drop buffer references so the list retains no frames
	b.toks = b.toks[:0]
	e.free.Load().batches.put(b)
}

// newChain spins up one goroutine per pipeline position over the current
// stage assignment, wired by channels carrying frame batches.
func (e *Engine) newChain() *chain {
	L := len(e.assign)
	chans := make([]chan *frameBatch, L+1)
	for i := range chans {
		chans[i] = make(chan *frameBatch, e.chanDepth)
	}
	c := &chain{head: chans[0], tail: chans[L]}
	for pos := 0; pos < L; pos++ {
		go e.batchWorker(c, chans[pos], chans[pos+1], e.assign[pos])
	}
	return c
}

// batchWorker applies the position's owned stages to every token of each
// batch and forwards the carrier; while the chain drains (or when the
// position is a pass-through relay) batches move through untouched.
func (e *Engine) batchWorker(c *chain, in <-chan *frameBatch, out chan<- *frameBatch, owned []int) {
	S := len(e.stages)
	for b := range in {
		if len(owned) > 0 && !c.draining.Load() {
			observing := e.reg.Enabled()
			var work time.Time
			if observing {
				work = time.Now()
			}
			for i := range b.toks {
				e.processToken(&b.toks[i], owned, S)
			}
			if observing {
				e.stageTime.ObserveSince(work)
				stall := time.Now()
				out <- b
				e.sendStall.ObserveSince(stall)
				continue
			}
		}
		out <- b
	}
	close(out)
}

// processToken runs the owned logical stages the token has not yet seen
// (t.next skips ones applied before a previous remap) and copies the
// result back into the token's own buffer, leasing a new one only when
// the result outgrows it.
func (e *Engine) processToken(t *token, owned []int, S int) {
	if t.next >= S {
		return
	}
	data := t.data
	processed := false
	for _, si := range owned {
		if si >= t.next {
			data = e.stages[si].Process(data)
			t.next = si + 1
			processed = true
		}
	}
	if !processed {
		return
	}
	// Stage outputs alias per-stage scratch, valid only until that stage
	// runs again — copy out before the next token reuses it. copy is a
	// memmove, so a stage returning (part of) its input is still safe.
	n := len(data)
	if cap(t.data) >= n {
		t.data = t.data[:n]
		copy(t.data, data)
		return
	}
	nb := e.GetBuffer(n)
	copy(nb, data)
	e.Recycle(Frame{Data: t.data})
	t.data = nb
}

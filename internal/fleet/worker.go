package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"gdpn/internal/verify"
)

// WorkerConfig configures RunWorker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	Coordinator string
	// ID names this worker process; "" derives hostname-pid.
	ID string
	// Parallel is the number of concurrent shard runners (default 1).
	// Each runner owns its own solver with persistent warm/memo caches.
	Parallel int
	// Throttle paces the enumeration (verify.Options.Throttle), for CI
	// gauntlets that need a sweep to outlive worker kills.
	Throttle time.Duration
	// Retry bounds how long coordinator calls keep retrying through
	// connection failures before the worker gives up — the window that
	// lets workers ride out a coordinator SIGKILL and its restart from
	// the store (default 30s).
	Retry time.Duration
	// Memo enables the solver result memo (on by default in gdpfleet).
	Memo bool
	// Client is the HTTP client to use (nil = a 10s-timeout client).
	Client *http.Client
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

// RunWorker runs one worker process: it fetches the job spec, rebuilds
// the instance deterministically, and loops leasing chunks, verifying
// them with persistent ShardRunners, and streaming the partial reports
// back with the chunks' proof-block entries — heartbeating its in-flight
// chunks so the coordinator knows it is alive. It returns nil when the coordinator reports the sweep done,
// ctx.Err() on cancellation, and a transport error only after the Retry
// window is exhausted.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.Parallel <= 0 {
		cfg.Parallel = 1
	}
	if cfg.Retry <= 0 {
		cfg.Retry = 30 * time.Second
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 10 * time.Second}
	}
	if cfg.ID == "" {
		host, _ := os.Hostname()
		cfg.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}

	w := &fleetWorker{cfg: cfg, inflight: map[int]bool{}}
	var job JobResponse
	if err := w.call(ctx, "/v1/job", nil, &job); err != nil {
		return fmt.Errorf("fleet worker %s: fetch job: %w", cfg.ID, err)
	}
	inst, err := job.Spec.Build()
	if err != nil {
		return fmt.Errorf("fleet worker %s: %w", cfg.ID, err)
	}
	opts := inst.Opts
	opts.Context = ctx
	opts.Throttle = cfg.Throttle
	opts.Solver.Memo = cfg.Memo
	cfg.Logf("fleet worker %s: job %s k=%d, %d runner(s)",
		cfg.ID, inst.Graph.Name(), job.Spec.K, cfg.Parallel)

	// Heartbeat at a third of the lease TTL so one dropped request does
	// not cost the lease.
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	hbEvery := time.Duration(job.LeaseTTLMS) * time.Millisecond / 3
	if hbEvery < 20*time.Millisecond {
		hbEvery = 20 * time.Millisecond
	}
	go w.heartbeatLoop(hbCtx, hbEvery)

	errs := make(chan error, cfg.Parallel)
	for i := 0; i < cfg.Parallel; i++ {
		go func() {
			errs <- w.runLoop(ctx, inst, opts, job.Spec.K)
		}()
	}
	var first error
	for i := 0; i < cfg.Parallel; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

type fleetWorker struct {
	cfg WorkerConfig

	mu       sync.Mutex
	inflight map[int]bool
}

// runLoop is one runner goroutine: lease → verify → complete until the
// coordinator says done or the context cancels.
func (w *fleetWorker) runLoop(ctx context.Context, inst *Instance, opts verify.Options, k int) error {
	runner := verify.NewShardRunner(inst.Graph, k, opts)
	defer runner.Close()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var lease LeaseResponse
		if err := w.call(ctx, "/v1/lease", LeaseRequest{WorkerID: w.cfg.ID}, &lease); err != nil {
			return err
		}
		switch {
		case lease.Done:
			return nil
		case lease.Wait:
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(200 * time.Millisecond):
			}
			continue
		}
		w.track(lease.ChunkID, true)
		rep := runner.Run(lease.Shard)
		var ack CompleteResponse
		err := w.call(ctx, "/v1/complete", CompleteRequest{WorkerID: w.cfg.ID, ChunkID: lease.ChunkID,
			Report: rep, Entries: runner.TakeEntries(lease.Shard.Size)}, &ack)
		w.track(lease.ChunkID, false)
		if err != nil {
			return err
		}
		if rep.Interrupted {
			// The sweep token latched mid-shard (SIGINT or ctx cancel):
			// the partial was rejected upstream; stop cleanly.
			return ctx.Err()
		}
		if !ack.Accepted {
			w.cfg.Logf("fleet worker %s: chunk %d not accepted (late, or its block failed the check)", w.cfg.ID, lease.ChunkID)
		}
	}
}

func (w *fleetWorker) track(chunkID int, on bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if on {
		w.inflight[chunkID] = true
	} else {
		delete(w.inflight, chunkID)
	}
}

func (w *fleetWorker) heartbeatLoop(ctx context.Context, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		w.mu.Lock()
		ids := make([]int, 0, len(w.inflight))
		for id := range w.inflight {
			ids = append(ids, id)
		}
		w.mu.Unlock()
		var resp HeartbeatResponse
		// Heartbeat failures are survivable (the next lease/complete also
		// proves liveness); the retry loop inside call already rides out
		// a coordinator restart.
		if err := w.call(ctx, "/v1/heartbeat", HeartbeatRequest{WorkerID: w.cfg.ID, ChunkIDs: ids}, &resp); err == nil {
			for _, id := range resp.Lost {
				w.cfg.Logf("fleet worker %s: lost lease on chunk %d (re-leased elsewhere)", w.cfg.ID, id)
			}
		}
	}
}

// call POSTs (or GETs, when req is nil) JSON to the coordinator,
// retrying transport failures with backoff until the Retry window of
// continuous failure elapses. The window resets on every success, so a
// long sweep tolerates any number of transient coordinator outages.
func (w *fleetWorker) call(ctx context.Context, path string, req, resp any) error {
	var firstFail time.Time
	backoff := 100 * time.Millisecond
	for {
		err := w.callOnce(ctx, path, req, resp)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if firstFail.IsZero() {
			firstFail = time.Now()
			w.cfg.Logf("fleet worker %s: %s failed (%v), retrying up to %v", w.cfg.ID, path, err, w.cfg.Retry)
		}
		if time.Since(firstFail) > w.cfg.Retry {
			return fmt.Errorf("fleet worker %s: %s still failing after %v: %w", w.cfg.ID, path, w.cfg.Retry, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
}

func (w *fleetWorker) callOnce(ctx context.Context, path string, req, resp any) error {
	url := w.cfg.Coordinator + path
	var httpReq *http.Request
	var err error
	if req == nil {
		httpReq, err = http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	} else {
		var body bytes.Buffer
		if err := json.NewEncoder(&body).Encode(req); err != nil {
			return err
		}
		if c, ok := req.(CompleteRequest); ok {
			body.Write(c.Entries) // raw, after the JSON line
		}
		httpReq, err = http.NewRequestWithContext(ctx, http.MethodPost, url, &body)
		if httpReq != nil {
			httpReq.Header.Set("Content-Type", "application/json")
		}
	}
	if err != nil {
		return err
	}
	httpResp, err := w.cfg.Client.Do(httpReq)
	if err != nil {
		return err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(httpResp.Body, 512))
		return fmt.Errorf("%s: %s", httpResp.Status, bytes.TrimSpace(b))
	}
	return json.NewDecoder(httpResp.Body).Decode(resp)
}

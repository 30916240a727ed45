package embed

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Resources is the engine core's unified cancellation/budget token: one
// value combines a context.Context, an optional node (expansion) budget,
// and an optional wall-clock deadline. Every solver and orchestration
// layer — the four engine tiers, verify.Exhaustive workers, reconfig
// remaps, chaos soaks, the pipeline.Stream remap path, and the CLIs —
// shares this one stop mechanism instead of inventing its own.
//
// The design constraint is that hot loops (the backtracker's DFS, the
// Held–Karp mask sweep) must be able to check "should I stop?" at a cost
// that disappears next to the work per expansion. Stopped is therefore a
// single atomic load: deadlines are armed as time.AfterFunc timers and
// context cancellation is forwarded by context.AfterFunc, both of which
// latch the flag from the outside, so the hot path never reads the clock
// and never walks a parent chain. Budgets are charged in batches (the
// engines charge every ~1k expansions), so the accounting adds one atomic
// add per batch, not per node.
//
// Tokens form a tree: Child() returns a token that stops when its parent
// stops (and can be stopped independently — a per-call scope ends without
// touching the pool-wide root).
// Budget charges propagate to ancestors, so a parent budget bounds the
// sum of work done under all descendants.
//
// A token with neither context, budget, deadline, nor parent never stops
// on its own but can still be stopped explicitly with Cancel.
type Resources struct {
	stop   atomic.Bool  // the hot-loop flag: latched once, never cleared
	cause  atomic.Int32 // StopReason; first writer wins
	used   atomic.Int64 // nodes charged to this token and its descendants
	budget int64        // 0 = unlimited

	deadline time.Time // absolute; zero = none (informational; the timer enforces)

	mu       sync.Mutex
	parent   *Resources
	children map[*Resources]struct{}

	timer   *time.Timer // deadline latch
	ctxStop func() bool // context.AfterFunc deregistration
}

// StopReason says why a token stopped.
type StopReason int32

const (
	// StopNone: the token is live.
	StopNone StopReason = iota
	// StopCanceled: Cancel was called (directly, via the parent, or via
	// context cancellation).
	StopCanceled
	// StopDeadline: the wall-clock deadline expired.
	StopDeadline
	// StopBudget: the node budget was exhausted.
	StopBudget
)

// String names the reason.
func (r StopReason) String() string {
	switch r {
	case StopNone:
		return "none"
	case StopCanceled:
		return "canceled"
	case StopDeadline:
		return "deadline"
	case StopBudget:
		return "budget"
	default:
		return fmt.Sprintf("reason(%d)", int32(r))
	}
}

// ErrBudget reports a token stopped by node-budget exhaustion.
var ErrBudget = errors.New("embed: node budget exhausted")

// ErrDeadline reports a token stopped by wall-clock deadline expiry.
// reconfig wraps its own reconfig.ErrDeadline around remap failures; this
// is the engine-level cause underneath.
var ErrDeadline = errors.New("embed: deadline exceeded")

// ErrCanceled reports a token stopped by explicit or context cancellation.
var ErrCanceled = errors.New("embed: canceled")

// NewResources builds a root token. ctx may be nil (no context); budget
// is the total node (expansion) allowance across every engine call charged
// to this token, 0 = unlimited; deadline is a wall-clock bound from now,
// 0 = none. Call Release when the token is no longer needed so its timer
// and context registration are torn down.
func NewResources(ctx context.Context, budget int64, deadline time.Duration) *Resources {
	r := &Resources{budget: budget}
	r.arm(ctx, deadline)
	return r
}

// Child returns a token that stops when r stops, and can additionally be
// stopped (Cancel), bounded (budget), or deadlined on its own. Charges to
// the child propagate to r. Call Release on the child when done —
// per-call scopes are created at high rates, and Release is what detaches
// them from the parent.
func (r *Resources) Child() *Resources {
	return r.child(0, 0)
}

// BudgetedChild returns a child carrying its own expansion budget (0 =
// unlimited) on top of the parent's. The multi-tenant executor uses one
// per tenant: replan search work is charged to the affected tenant's
// token, and a tenant that exhausts its allowance is shed without
// stopping its siblings or the pool-wide root.
func (r *Resources) BudgetedChild(budget int64) *Resources {
	return r.child(budget, 0)
}

func (r *Resources) child(budget int64, deadline time.Duration) *Resources {
	c := &Resources{budget: budget, parent: r}
	r.mu.Lock()
	if r.children == nil {
		r.children = make(map[*Resources]struct{})
	}
	r.children[c] = struct{}{}
	stopped := r.stop.Load()
	r.mu.Unlock()
	if stopped {
		c.stopAs(StopReason(r.cause.Load()))
	}
	c.arm(nil, deadline)
	return c
}

// Scoped returns a child of parent carrying its own deadline (0 = none).
// A nil parent yields a detached root. chaos.Run bounds each fault
// event's remap with one (reconfig reads its deadline).
func Scoped(parent *Resources, deadline time.Duration) *Resources {
	if parent == nil {
		return NewResources(nil, 0, deadline)
	}
	return parent.child(0, deadline)
}

// arm installs the external latches: a timer for the deadline and a
// context.AfterFunc for ctx cancellation.
func (r *Resources) arm(ctx context.Context, deadline time.Duration) {
	if deadline > 0 {
		r.deadline = time.Now().Add(deadline)
		r.timer = time.AfterFunc(deadline, func() { r.stopAs(StopDeadline) })
	} else if deadline < 0 {
		// An already-expired deadline: born stopped.
		r.stopAs(StopDeadline)
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			r.stopAs(StopCanceled)
		} else if ctx.Done() != nil {
			r.ctxStop = context.AfterFunc(ctx, func() { r.stopAs(StopCanceled) })
		}
	}
}

// Stopped is the hot-loop check: one atomic load.
func (r *Resources) Stopped() bool { return r.stop.Load() }

// Cancel stops the token and every descendant. Idempotent; safe from any
// goroutine — this is how a verify worker's counterexample cancels the
// sweep.
func (r *Resources) Cancel() { r.stopAs(StopCanceled) }

// stopAs latches the stop flag with the given cause (first cause wins)
// and propagates to children.
func (r *Resources) stopAs(why StopReason) {
	r.cause.CompareAndSwap(int32(StopNone), int32(why))
	if r.stop.Swap(true) {
		return // already stopped; children were already told
	}
	r.mu.Lock()
	kids := make([]*Resources, 0, len(r.children))
	for c := range r.children {
		kids = append(kids, c)
	}
	r.mu.Unlock()
	for _, c := range kids {
		c.stopAs(why)
	}
}

// Reason returns why the token stopped (StopNone while live).
func (r *Resources) Reason() StopReason { return StopReason(r.cause.Load()) }

// Err maps the stop cause to a sentinel error: nil while live,
// ErrCanceled / ErrDeadline / ErrBudget after a stop.
func (r *Resources) Err() error {
	switch r.Reason() {
	case StopCanceled:
		return ErrCanceled
	case StopDeadline:
		return ErrDeadline
	case StopBudget:
		return ErrBudget
	default:
		return nil
	}
}

// Charge records n nodes of work against the token and every ancestor,
// stopping any whose budget is exhausted. It returns false when the token
// is (now) stopped, so engines can use it as their batched check:
//
//	if expansions&1023 == 0 && !res.Charge(1024) { give up }
//
// Charging is amortized — call it once per batch, not per node.
func (r *Resources) Charge(n int64) bool {
	for t := r; t != nil; t = t.parent {
		if t.used.Add(n) > t.budget && t.budget > 0 {
			t.stopAs(StopBudget)
		}
	}
	return !r.stop.Load()
}

// Used returns the nodes charged to this token (including descendants).
func (r *Resources) Used() int64 { return r.used.Load() }

// Remaining returns the unspent node budget, or -1 when unlimited.
func (r *Resources) Remaining() int64 {
	if r.budget <= 0 {
		return -1
	}
	rem := r.budget - r.used.Load()
	if rem < 0 {
		rem = 0
	}
	return rem
}

// Deadline returns the absolute deadline and whether one is set.
func (r *Resources) Deadline() (time.Time, bool) {
	return r.deadline, !r.deadline.IsZero()
}

// Release tears the token down: the deadline timer is stopped, the
// context registration removed, and the token detached from its parent so
// short-lived scopes (per-call deadlines) do not
// accumulate. The token itself stays usable as a plain stopped/unstopped
// flag; Release does NOT cancel it.
func (r *Resources) Release() {
	if r == nil {
		return
	}
	if r.timer != nil {
		r.timer.Stop()
	}
	if r.ctxStop != nil {
		r.ctxStop()
	}
	if p := r.parent; p != nil {
		p.mu.Lock()
		delete(p.children, r)
		p.mu.Unlock()
	}
}

// stopped is the nil-tolerant hot-loop check used by the engines: a nil
// token never stops.
func stopped(r *Resources) bool { return r != nil && r.stop.Load() }

// charge is the nil-tolerant batched budget charge: a nil token accepts
// everything.
func charge(r *Resources, n int64) bool {
	if r == nil {
		return true
	}
	return r.Charge(n)
}

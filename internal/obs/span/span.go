// Package span is the causal tracing layer on top of internal/obs: where
// obs records flat counters and a flat event ring, span records *trees* —
// one root span per unit of work (a remap, a verification chunk, a soak)
// with child spans per phase (detect → plan → solve → drain → rewire →
// requeue → audit) and per tactic attempt, each carrying typed attributes
// and a terminal status (ok / canceled / deadline / rollback / error).
// The parent links are what turn "the remap blew its deadline" into "the
// solve phase ate 93% of the budget after both local tactics missed".
//
// The package follows the same discipline as obs.Registry: tracing must be
// free to leave in hot paths. Tracer.Start is a single atomic load when
// the tracer is disabled (it returns a nil *S, and every *S method is
// nil-tolerant), so instrumented code never branches on an "is tracing on"
// flag of its own. Finished spans land in a bounded mutex-guarded ring —
// spans are per-remap and per-chunk, orders of magnitude rarer than
// frames, so a small lock around the push keeps ordering exact without a
// lock-free structure.
//
// On top of the tracer this package provides the anomaly flight recorder
// (flight.go) — a rolling window of recent spans plus metric deltas,
// auto-dumped as a self-contained JSON bundle when an anomaly trips — and
// the SLO/health layer (slo.go): rolling latency objectives, a per-node-
// class availability ledger, and a degradation-level gauge.
package span

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Status is a span's terminal state.
type Status uint8

const (
	// OK: the unit of work completed normally.
	OK Status = iota
	// Canceled: abandoned because a cancellation token latched.
	Canceled
	// Deadline: abandoned (or discarded late) on a wall-clock deadline.
	Deadline
	// Rollback: the work completed but its effect was undone (a remap
	// rolled back to the previous mapping).
	Rollback
	// Errored: the work failed for any other reason.
	Errored
)

var statusNames = [...]string{"ok", "canceled", "deadline", "rollback", "error"}

// String names the status.
func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// MarshalJSON renders the status as its name.
func (s Status) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON accepts the names written by MarshalJSON (unknown names
// decode as Errored rather than failing — dumps from newer builds must
// stay renderable).
func (s *Status) UnmarshalJSON(b []byte) error {
	name := string(b)
	if len(name) >= 2 && name[0] == '"' {
		name = name[1 : len(name)-1]
	}
	for i, n := range statusNames {
		if n == name {
			*s = Status(i)
			return nil
		}
	}
	*s = Errored
	return nil
}

// Attr is one typed key/value attribute on a span. Exactly one of Str and
// Int is meaningful; IsInt selects which.
type Attr struct {
	Key   string `json:"key"`
	Str   string `json:"str,omitempty"`
	Int   int64  `json:"int,omitempty"`
	IsInt bool   `json:"is_int,omitempty"`
}

// Value renders the attribute value as a string.
func (a Attr) Value() string {
	if a.IsInt {
		return fmt.Sprintf("%d", a.Int)
	}
	return a.Str
}

// Event is a point-in-time annotation attached to a span (a chaos schedule
// event on the soak root, for example).
type Event struct {
	// At is the monotonic time since tracer creation.
	At time.Duration `json:"at_ns"`
	// Name is the event kind ("fault", "repair", ...).
	Name string `json:"name"`
	// Fields holds free-form `k=v` detail.
	Fields string `json:"fields,omitempty"`
}

// Span is one finished unit of work. IDs are unique per tracer; Parent is
// 0 for roots; Trace is the root span's ID for every span in the tree, so
// a dump can be grouped into trees without walking links.
type Span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Trace  uint64        `json:"trace"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Status Status        `json:"status"`
	Attrs  []Attr        `json:"attrs,omitempty"`
	Events []Event       `json:"events,omitempty"`
}

// Duration is the span's wall-clock extent.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Attr returns the named attribute's rendered value and whether it exists.
func (s Span) Attr(key string) (string, bool) {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value(), true
		}
	}
	return "", false
}

// DefaultSpanCap is the finished-span capacity of a tracer's ring. A
// reader that polls the ring loses spans once more finish between two
// reads than the ring holds: traced, the symmetry-reduced G(26,5) proof
// finishes about 3·10^5 solve spans a second on two cores, which 16384
// spans cover for some 50 ms.
const DefaultSpanCap = 16384

// ringPrealloc is the ring storage a tracer allocates up front; past it
// the ring grows as spans finish, up to the tracer's capacity.
const ringPrealloc = 4096

// Tracer mints span IDs and collects finished spans into a bounded ring
// (oldest evicted first). Disabled tracers cost one atomic load per Start.
type Tracer struct {
	enabled atomic.Bool
	epoch   time.Time
	nextID  atomic.Uint64

	mu      sync.Mutex
	ring    []Span
	next    uint64 // total spans ever finished
	cap     int
	dropped uint64 // finished spans evicted from the ring
}

// NewTracer returns a disabled tracer with an empty ring of the given
// capacity (<= 0 selects DefaultSpanCap).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultSpanCap
	}
	return &Tracer{epoch: time.Now(), ring: make([]Span, 0, min(capacity, ringPrealloc)), cap: capacity}
}

var defaultTracer = NewTracer(DefaultSpanCap)

// Default returns the process-wide tracer shared by the instrumented
// packages and the CLIs, disabled until a CLI turns it on.
func Default() *Tracer { return defaultTracer }

// SetEnabled turns the tracer on or off. Spans already in the ring are
// kept across a disable/enable cycle.
func (t *Tracer) SetEnabled(on bool) { t.enabled.Store(on) }

// Enabled reports whether spans are being recorded.
func (t *Tracer) Enabled() bool { return t.enabled.Load() }

// S is an active (unfinished) span handle. A nil *S is a valid no-op span:
// every method tolerates it, so call sites never gate on Enabled. An *S
// must not be shared across goroutines without external synchronization —
// the intended shape is one span per unit of work, owned by the goroutine
// doing that work (the finished-span ring IS safe for concurrent pushes).
type S struct {
	t  *Tracer
	sp Span
}

// Start opens a span. parent may be nil (a root span). When the tracer is
// disabled Start returns nil, and the nil handle's methods are all no-ops.
func (t *Tracer) Start(parent *S, name string) *S {
	if !t.enabled.Load() {
		return nil
	}
	id := t.nextID.Add(1)
	s := &S{t: t, sp: Span{ID: id, Trace: id, Name: name, Start: time.Since(t.epoch)}}
	if parent != nil {
		s.sp.Parent = parent.sp.ID
		s.sp.Trace = parent.sp.Trace
	}
	return s
}

// Start opens a span on the default tracer.
func Start(parent *S, name string) *S { return defaultTracer.Start(parent, name) }

// SetStr attaches a string attribute. Returns s for chaining.
func (s *S) SetStr(key, val string) *S {
	if s == nil {
		return nil
	}
	s.sp.Attrs = append(s.sp.Attrs, Attr{Key: key, Str: val})
	return s
}

// SetInt attaches an integer attribute. Returns s for chaining.
func (s *S) SetInt(key string, val int64) *S {
	if s == nil {
		return nil
	}
	s.sp.Attrs = append(s.sp.Attrs, Attr{Key: key, Int: val, IsInt: true})
	return s
}

// Eventf attaches a point-in-time event to the span. The format arguments
// are not evaluated on a nil handle.
func (s *S) Eventf(name, format string, args ...any) {
	if s == nil {
		return
	}
	s.sp.Events = append(s.sp.Events, Event{
		At: time.Since(s.t.epoch), Name: name, Fields: fmt.Sprintf(format, args...),
	})
}

// ID returns the span's ID (0 on a nil handle).
func (s *S) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.sp.ID
}

// End finishes the span with the given status and pushes it into the
// tracer's ring. Ending a span twice records it twice; don't.
func (s *S) End(st Status) {
	if s == nil {
		return
	}
	s.sp.End = time.Since(s.t.epoch)
	s.sp.Status = st
	s.t.push(s.sp)
}

func (t *Tracer) push(sp Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	seq := t.next
	t.next++
	if len(t.ring) < t.cap {
		t.ring = append(t.ring, sp)
		return
	}
	t.dropped++
	t.ring[int(seq)%t.cap] = sp
}

// Snapshot returns the finished spans, oldest first.
func (t *Tracer) Snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.ring))
	if len(t.ring) < t.cap {
		return append(out, t.ring...)
	}
	start := int(t.next) % t.cap
	out = append(out, t.ring[start:]...)
	out = append(out, t.ring[:start]...)
	return out
}

// Dropped returns how many finished spans the ring has evicted.
func (t *Tracer) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Reset clears the ring (the enabled state and ID sequence are preserved).
// Meant for tests and benchmarks that reuse Default().
func (t *Tracer) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ring = t.ring[:0]
	t.next = 0
	t.dropped = 0
}

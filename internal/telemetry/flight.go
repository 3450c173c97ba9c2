package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// FlightKind classifies a flight-recorder event. Kinds serialize as short
// strings so flight dumps stay greppable.
type FlightKind int

const (
	// FlightNode is one branch-and-bound node: opened, solved, and then
	// fathomed, pruned, or branched (see FlightEvent.Label).
	FlightNode FlightKind = iota
	// FlightIncumbent is an incumbent update — a new best integral
	// solution inside a MILP, or a new best attack gain in Algorithm 1.
	FlightIncumbent
	// FlightRound is one row-generation round of a bilevel subproblem.
	FlightRound
	// FlightSubproblem is the completion of one (target, direction)
	// subproblem with its outcome.
	FlightSubproblem
	// FlightLP is one LP solve, with the engine that ran it.
	FlightLP
	// FlightAttack is the completion of a full FindOptimalAttack run.
	FlightAttack
	// FlightSweep is one batch (or the summary) of a scenario-sweep
	// evaluation: Monitored carries the scenario count, Violated the
	// number of successful (masked-violation) scenarios.
	FlightSweep
	// FlightPanic is a panic a serving worker recovered from; Label
	// carries the panic value and the goroutine stack.
	FlightPanic
)

var flightKindNames = [...]string{"node", "incumbent", "round", "subproblem", "lp", "attack", "sweep", "panic"}

// String returns the wire name of the kind ("node", "incumbent", ...).
func (k FlightKind) String() string {
	if k < 0 || int(k) >= len(flightKindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return flightKindNames[k]
}

// MarshalJSON encodes the kind as its string name.
func (k FlightKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON decodes either the string name or a legacy integer.
func (k *FlightKind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		for i, name := range flightKindNames {
			if name == s {
				*k = FlightKind(i)
				return nil
			}
		}
		return fmt.Errorf("telemetry: unknown flight kind %q", s)
	}
	var n int
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("telemetry: flight kind: %w", err)
	}
	*k = FlightKind(n)
	return nil
}

// FlightEvent is one record in the flight recorder. It is a flat,
// fixed-size struct so recording is a single ring-slot copy under a short
// critical section; which fields are meaningful depends on Kind.
type FlightEvent struct {
	// Seq is the 1-based global sequence number; TUS is microseconds since
	// the recorder started. Both are assigned by Record.
	Seq  uint64     `json:"seq"`
	TUS  int64      `json:"t_us"`
	Kind FlightKind `json:"kind"`

	// Target and Dir identify the Algorithm 1 subproblem (attacked line
	// index and manipulation direction ±1); Round is the row-generation
	// round, 1-based.
	Target int `json:"target,omitempty"`
	Dir    int `json:"dir,omitempty"`
	Round  int `json:"round,omitempty"`

	// Node and Parent are 1-based B&B node ids (Parent 0 = root); Depth is
	// the number of branching fixes on the node's path; Frontier is the
	// number of open nodes left after this one.
	Node     int `json:"node,omitempty"`
	Parent   int `json:"parent,omitempty"`
	Depth    int `json:"depth,omitempty"`
	Frontier int `json:"frontier,omitempty"`

	// Pivots counts simplex pivots (per LP solve, node, or round); Warm
	// marks a warm-started solve; Sparse marks the sparse LU basis kernel
	// (false = dense LU).
	Pivots int  `json:"pivots,omitempty"`
	Warm   bool `json:"warm,omitempty"`
	Sparse bool `json:"sparse,omitempty"`

	// Monitored and Violated are row-generation set sizes.
	Monitored int `json:"monitored,omitempty"`
	Violated  int `json:"violated,omitempty"`

	// Bound is the local relaxation bound (or LP objective); Incumbent is
	// the best known integral objective / attack gain at the time.
	Bound     float64 `json:"bound,omitempty"`
	Incumbent float64 `json:"incumbent,omitempty"`

	// DurUS is the event duration in microseconds, when timed.
	DurUS int64 `json:"dur_us,omitempty"`

	// Label carries the event-specific disposition: for FlightNode one of
	// "branch", "integral", "incumbent", "pruned", "infeasible",
	// "conflict"; for FlightSubproblem the outcome ("optimal",
	// "truncated", "pruned", "infeasible", "error"); for FlightLP the
	// solve status; for FlightIncumbent the source ("seed", "heuristic",
	// "integral", "shared", "result"); for FlightPanic the panic value and
	// stack.
	Label string `json:"label,omitempty"`
}

// DefaultFlightCapacity is the ring size used when NewFlight is given a
// non-positive capacity: 65536 events ≈ 10 MB, enough for every node of a
// budgeted case118 attack with room to spare.
const DefaultFlightCapacity = 1 << 16

// Flight is a bounded in-memory event recorder for solver runs. Recording
// appends to a fixed-capacity ring: once full, the oldest events are
// overwritten, so a recorder never grows and the most recent window of
// solver activity is always available. Flight is safe for concurrent use,
// and — like the rest of this package — nil-safe: Record on a nil *Flight
// is a no-op, so instrumented solvers pay one nil check when recording is
// off.
//
// The recorder is purely observational: it never feeds back into solver
// decisions, so enabling it cannot change any computed attack.
type Flight struct {
	mu    sync.Mutex
	start time.Time
	buf   []FlightEvent
	total uint64
}

// NewFlight returns a recorder holding up to capacity events
// (DefaultFlightCapacity when capacity ≤ 0).
func NewFlight(capacity int) *Flight {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	return &Flight{start: time.Now(), buf: make([]FlightEvent, 0, capacity)}
}

// Record stamps ev with the next sequence number and the elapsed time and
// stores it, overwriting the oldest event when the ring is full. No-op on a
// nil recorder.
func (f *Flight) Record(ev FlightEvent) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.total++
	ev.Seq = f.total
	ev.TUS = time.Since(f.start).Microseconds()
	if len(f.buf) < cap(f.buf) {
		f.buf = append(f.buf, ev)
	} else {
		f.buf[int((f.total-1)%uint64(cap(f.buf)))] = ev
	}
	f.mu.Unlock()
}

// Len returns the number of retained events (≤ capacity).
func (f *Flight) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.buf)
}

// Total returns the number of events ever recorded, including overwritten
// ones.
func (f *Flight) Total() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}

// Events returns the retained events in recording order (oldest first).
// Safe on a nil recorder (returns nil).
func (f *Flight) Events() []FlightEvent {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FlightEvent, 0, len(f.buf))
	if f.total <= uint64(cap(f.buf)) {
		return append(out, f.buf...)
	}
	head := int(f.total % uint64(cap(f.buf)))
	out = append(out, f.buf[head:]...)
	return append(out, f.buf[:head]...)
}

// FlightRecord is the JSON envelope written by WriteJSON and read back by
// ReadFlight.
type FlightRecord struct {
	// Start is the recorder start time in RFC3339Nano.
	Start string `json:"start"`
	// Total counts all recorded events; Dropped is how many were
	// overwritten by the ring (Total - len(Events)).
	Total   uint64        `json:"total"`
	Dropped uint64        `json:"dropped"`
	Events  []FlightEvent `json:"events"`
}

// Snapshot returns the recorder state as a FlightRecord envelope.
func (f *Flight) Snapshot() FlightRecord {
	rec := FlightRecord{Events: f.Events()}
	if f != nil {
		f.mu.Lock()
		rec.Start = f.start.UTC().Format(time.RFC3339Nano)
		rec.Total = f.total
		f.mu.Unlock()
		rec.Dropped = rec.Total - uint64(len(rec.Events))
	}
	return rec
}

// WriteJSON writes the retained events as an indented JSON envelope.
func (f *Flight) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f.Snapshot())
}

// ReadFlight parses a flight dump produced by WriteJSON. It also accepts a
// bare JSON array of events for hand-assembled fixtures.
func ReadFlight(r io.Reader) (FlightRecord, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return FlightRecord{}, fmt.Errorf("telemetry: read flight: %w", err)
	}
	var rec FlightRecord
	if err := json.Unmarshal(data, &rec); err == nil {
		return rec, nil
	}
	var events []FlightEvent
	if err := json.Unmarshal(data, &events); err != nil {
		return FlightRecord{}, fmt.Errorf("telemetry: parse flight: %w", err)
	}
	rec = FlightRecord{Total: uint64(len(events)), Events: events}
	return rec, nil
}

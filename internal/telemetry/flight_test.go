package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// TestFlightNilRecorder proves the "recording off" path: every method on a
// nil recorder is a no-op and never panics.
func TestFlightNilRecorder(t *testing.T) {
	var f *Flight
	f.Record(FlightEvent{Kind: FlightNode})
	if f.Len() != 0 || f.Total() != 0 || f.Events() != nil {
		t.Errorf("nil flight not empty: len=%d total=%d", f.Len(), f.Total())
	}
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatalf("nil WriteJSON: %v", err)
	}
}

// TestFlightOrderAndStamps checks sequence numbers, monotone timestamps,
// and recording order below capacity.
func TestFlightOrderAndStamps(t *testing.T) {
	f := NewFlight(16)
	for i := 0; i < 10; i++ {
		f.Record(FlightEvent{Kind: FlightNode, Node: i + 1})
	}
	evs := f.Events()
	if len(evs) != 10 || f.Total() != 10 {
		t.Fatalf("len=%d total=%d, want 10/10", len(evs), f.Total())
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) || ev.Node != i+1 {
			t.Errorf("event %d: seq=%d node=%d", i, ev.Seq, ev.Node)
		}
		if i > 0 && ev.TUS < evs[i-1].TUS {
			t.Errorf("event %d: timestamp went backwards (%d < %d)", i, ev.TUS, evs[i-1].TUS)
		}
	}
}

// TestFlightRingWrap checks that an over-capacity recorder keeps exactly
// the newest events, still in order.
func TestFlightRingWrap(t *testing.T) {
	f := NewFlight(4)
	for i := 1; i <= 11; i++ {
		f.Record(FlightEvent{Kind: FlightNode, Node: i})
	}
	evs := f.Events()
	if len(evs) != 4 || f.Total() != 11 {
		t.Fatalf("len=%d total=%d, want 4/11", len(evs), f.Total())
	}
	for i, want := range []int{8, 9, 10, 11} {
		if evs[i].Node != want || evs[i].Seq != uint64(want) {
			t.Errorf("slot %d: node=%d seq=%d, want %d", i, evs[i].Node, evs[i].Seq, want)
		}
	}
	if snap := f.Snapshot(); snap.Dropped != 7 {
		t.Errorf("dropped = %d, want 7", snap.Dropped)
	}
}

// TestFlightConcurrentRecord hammers one recorder from many goroutines;
// under -race this is the concurrency-safety proof.
func TestFlightConcurrentRecord(t *testing.T) {
	f := NewFlight(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				f.Record(FlightEvent{Kind: FlightLP, Pivots: i})
			}
		}()
	}
	wg.Wait()
	if f.Total() != 1600 || f.Len() != 64 {
		t.Errorf("total=%d len=%d, want 1600/64", f.Total(), f.Len())
	}
	seen := map[uint64]bool{}
	for _, ev := range f.Events() {
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
	}
}

// TestFlightJSONRoundTrip writes a dump and reads it back, covering the
// FlightKind string codec.
func TestFlightJSONRoundTrip(t *testing.T) {
	f := NewFlight(8)
	f.Record(FlightEvent{Kind: FlightNode, Target: 5, Dir: -1, Depth: 3, Bound: 1.25, Warm: true, Label: "branch"})
	f.Record(FlightEvent{Kind: FlightIncumbent, Incumbent: 4.5, Label: "seed"})
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"kind": "node"`)) {
		t.Errorf("kind not serialized as string:\n%s", buf.String())
	}
	rec, err := ReadFlight(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Total != 2 || len(rec.Events) != 2 {
		t.Fatalf("round trip: total=%d events=%d", rec.Total, len(rec.Events))
	}
	got := rec.Events[0]
	if got.Kind != FlightNode || got.Target != 5 || got.Dir != -1 || got.Depth != 3 || got.Bound != 1.25 || !got.Warm || got.Label != "branch" {
		t.Errorf("event drifted through JSON: %+v", got)
	}
	if rec.Events[1].Kind != FlightIncumbent {
		t.Errorf("second event kind = %v", rec.Events[1].Kind)
	}
}

// TestFlightReadBareArray accepts hand-written fixture files that are just
// an event array.
func TestFlightReadBareArray(t *testing.T) {
	rec, err := ReadFlight(bytes.NewReader([]byte(`[{"seq":1,"t_us":0,"kind":"lp","pivots":7}]`)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Events) != 1 || rec.Events[0].Kind != FlightLP || rec.Events[0].Pivots != 7 {
		t.Errorf("bare array parse: %+v", rec)
	}
}

// TestFlightReadsStrategyKey loads a dump from when node events still
// named their node-selection order: the retired "strategy" key is ignored
// and the rest of the event decodes.
func TestFlightReadsStrategyKey(t *testing.T) {
	in := `{"start":"2026-08-08T00:00:00Z","total":1,"dropped":0,"events":[` +
		`{"seq":1,"t_us":3,"kind":"node","target":4,"dir":1,"node":2,"parent":1,"depth":1,"strategy":"hybrid","frontier":5,"label":"branch"}]}`
	rec, err := ReadFlight(bytes.NewReader([]byte(in)))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Total != 1 || len(rec.Events) != 1 {
		t.Fatalf("total=%d events=%d", rec.Total, len(rec.Events))
	}
	ev := rec.Events[0]
	if ev.Kind != FlightNode || ev.Target != 4 || ev.Node != 2 || ev.Parent != 1 || ev.Frontier != 5 || ev.Label != "branch" {
		t.Errorf("event decoded as %+v", ev)
	}
	if tree := FlightTrees(rec.Events); len(tree) != 1 || len(tree[0].Nodes) != 1 {
		t.Errorf("old dump does not rebuild its search tree: %+v", tree)
	}
}

// TestFlightKindCodec covers unknown names and legacy integer kinds.
func TestFlightKindCodec(t *testing.T) {
	for k := FlightNode; k <= FlightAttack; k++ {
		data, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var back FlightKind
		if err := json.Unmarshal(data, &back); err != nil || back != k {
			t.Errorf("kind %v: round trip got %v err %v", k, back, err)
		}
	}
	var k FlightKind
	if err := json.Unmarshal([]byte(`"no-such-kind"`), &k); err == nil {
		t.Error("unknown kind name accepted")
	}
	if err := json.Unmarshal([]byte(`2`), &k); err != nil || k != FlightRound {
		t.Errorf("legacy integer kind: %v err %v", k, err)
	}
	if s := fmt.Sprint(FlightKind(99)); s != "kind(99)" {
		t.Errorf("out-of-range kind string = %q", s)
	}
}

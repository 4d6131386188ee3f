package obs

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// TestSpanOverheadGuard enforces the unsampled-tracing budget from the
// acceptance bar: a Start/Finish pair beneath a context no node adopted
// must cost at most 5 ns and zero allocations — Start early-returns before
// reading the clock, so the whole disabled cost is two branches per
// probe site. Guarded like TestObsOverheadGuard: skipped under -race
// (the detector multiplies every cost) and in -short mode.
// BenchmarkUnsampledProbe adds the context lookup a layer makes first.
func TestSpanOverheadGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("overhead guard is meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("skipping overhead guard in short mode")
	}
	res := testing.Benchmark(func(b *testing.B) {
		tc := NewSpanRecorder("guard", 64).Adopt(TraceContext{}) // unsampled: the fleet-wide default
		for i := 0; i < b.N; i++ {
			s := tc.Start(SpanPoolFetch)
			s.Finish(int64(i))
		}
	})
	const ceilingNs = 5
	if got := res.NsPerOp(); got > ceilingNs {
		t.Fatalf("unsampled span start+finish costs %d ns/op, ceiling %d ns", got, ceilingNs)
	}
	if res.AllocsPerOp() != 0 {
		t.Fatalf("unsampled span path allocates %d objects/op, must be 0", res.AllocsPerOp())
	}
	// A sampled trace on a node with tracing off (adopted by no recorder)
	// must hold the same budget.
	res = testing.Benchmark(func(b *testing.B) {
		tc := TraceContext{TraceID: 1, SpanID: 2, Sampled: true}
		for i := 0; i < b.N; i++ {
			s := tc.Start(SpanPoolFetch)
			s.Finish(int64(i))
		}
	})
	if got := res.NsPerOp(); got > ceilingNs {
		t.Fatalf("unadopted span start+finish costs %d ns/op, ceiling %d ns", got, ceilingNs)
	}
	if res.AllocsPerOp() != 0 {
		t.Fatalf("unadopted span path allocates %d objects/op, must be 0", res.AllocsPerOp())
	}
}

func TestSpanRecorderRoundTrip(t *testing.T) {
	rec := NewSpanRecorder("n0", 16)
	trace := rec.NewTraceID()
	tc := rec.Adopt(TraceContext{TraceID: trace, SpanID: 0, Sampled: true})

	root := tc.Start(SpanRequest)
	// The child reaches the recorder through the context alone.
	ctx := ContextWithTrace(context.Background(), root.Context())
	child := TraceFrom(ctx).Start(SpanPoolFetch)
	child.Finish(42)
	root.Finish(3)

	spans := rec.TraceSpans(trace)
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Ring order is finish order: the child finished first.
	if spans[0].Kind != SpanPoolFetch || spans[1].Kind != SpanRequest {
		t.Fatalf("unexpected kinds: %v, %v", spans[0].Kind, spans[1].Kind)
	}
	if spans[0].Parent != spans[1].Span {
		t.Fatalf("child parent %s != root span %s", spans[0].Parent, spans[1].Span)
	}
	if spans[0].Trace != Hex64(trace) || spans[1].Trace != Hex64(trace) {
		t.Fatalf("trace ids not propagated: %s %s", spans[0].Trace, spans[1].Trace)
	}
	if spans[0].Annot != 42 {
		t.Fatalf("child annot = %d, want 42", spans[0].Annot)
	}
	if spans[0].Node != "n0" {
		t.Fatalf("node = %q, want n0", spans[0].Node)
	}
	if spans[0].Dur < 0 || spans[1].Dur < spans[0].Dur {
		t.Fatalf("child dur %d must nest within root dur %d", spans[0].Dur, spans[1].Dur)
	}
}

// TestSpanStartsIgnoreWallClockSteps: a recorder reads the wall clock once,
// for its base, and stamps every start as that reading plus a monotonic
// offset. A wall-clock step under a live recorder — injected by moving the
// base's wall reading an hour ahead of the clock, as a step back would
// leave it — moves every start by the step and leaves each child nested in
// its parent with no slop at all. Stamping starts from fresh wall-clock
// reads would land an hour off the base, and a real step between a parent
// and its child would unnest them.
func TestSpanStartsIgnoreWallClockSteps(t *testing.T) {
	rec := NewSpanRecorder("n0", 16)
	rec.baseWall += int64(time.Hour)
	trace := rec.NewTraceID()
	tc := rec.Adopt(TraceContext{TraceID: trace, Sampled: true})

	before := time.Now()
	root := tc.Start(SpanRequest)
	child := root.Context().Start(SpanPoolFetch)
	child.Context().Emit(SpanEvict, time.Now(), 0, 7)
	child.Finish(0)
	root.Finish(0)
	after := time.Now()

	spans := rec.TraceSpans(trace)
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byID := make(map[Hex64]SpanRecord)
	for _, s := range spans {
		// A minute's tolerance absorbs any real step during the test.
		if off := time.Duration(s.Start - after.UnixNano()); off < time.Hour-time.Minute || off > time.Hour+time.Minute {
			t.Errorf("%s span starts %v from the wall clock, want the base's hour", s.Kind, off)
		}
		if lo, hi := rec.stamp(before), rec.stamp(after); s.Start < lo || s.Start+s.Dur > hi {
			t.Errorf("%s span [%d, %d] is outside the test's window [%d, %d]", s.Kind, s.Start, s.Start+s.Dur, lo, hi)
		}
		byID[s.Span] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		if s.Start < p.Start || s.Start+s.Dur > p.Start+p.Dur {
			t.Errorf("%s span [%d, +%d] escapes its parent %s [%d, +%d]", s.Kind, s.Start, s.Dur, p.Kind, p.Start, p.Dur)
		}
	}
}

func TestSpanRecorderRingOverwrite(t *testing.T) {
	rec := NewSpanRecorder("n0", 4)
	for i := 0; i < 10; i++ {
		rec.Adopt(TraceContext{TraceID: uint64(i + 1), Sampled: true}).
			Emit(SpanDiskRead, time.Unix(0, int64(i)), time.Duration(i), 0)
	}
	got := rec.Snapshot()
	if len(got) != 4 {
		t.Fatalf("got %d spans, want ring capacity 4", len(got))
	}
	for i, s := range got {
		if want := Hex64(7 + i); s.Trace != want {
			t.Fatalf("span %d trace = %s, want %s (oldest-first after overwrite)", i, s.Trace, want)
		}
	}
}

func TestSpanRecordJSONRoundTrip(t *testing.T) {
	in := SpanRecord{
		Trace:  Hex64(0xdeadbeefcafe0001),
		Span:   Hex64(2),
		Parent: Hex64(3),
		Kind:   SpanWALFsync,
		Start:  123456789,
		Dur:    42,
		Annot:  -7,
		Node:   "n1",
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out SpanRecord
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip mismatch: %+v != %+v", out, in)
	}
	// Hex ids must survive as fixed-width strings, not JSON numbers.
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if s, ok := raw["trace"].(string); !ok || s != "deadbeefcafe0001" {
		t.Fatalf("trace id encodes as %v, want \"deadbeefcafe0001\"", raw["trace"])
	}
}

func TestParseHex64(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Hex64
		ok   bool
	}{
		{"deadbeefcafe0001", 0xdeadbeefcafe0001, true},
		{"0000000000000001", 1, true},
		{"1", 1, true},
		{"DEADBEEF", 0xdeadbeef, true},
		{"", 0, false},
		{"deadbeefcafe00012", 0, false}, // 17 digits
		{"xyz", 0, false},
	} {
		got, err := ParseHex64(tc.in)
		if tc.ok != (err == nil) {
			t.Fatalf("ParseHex64(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
		}
		if err == nil && got != tc.want {
			t.Fatalf("ParseHex64(%q) = %x, want %x", tc.in, got, tc.want)
		}
	}
}

func TestSpanKindJSON(t *testing.T) {
	for k := SpanKind(0); k < numSpanKinds; k++ {
		data, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var back SpanKind
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != k {
			t.Fatalf("kind %v round-trips to %v", k, back)
		}
	}
	var k SpanKind
	if err := json.Unmarshal([]byte(`"no_such_kind"`), &k); err == nil {
		t.Fatal("unknown kind name must not decode")
	}
}

func TestContextTrace(t *testing.T) {
	ctx := context.Background()
	if tc := TraceFrom(ctx); tc != (TraceContext{}) {
		t.Fatalf("empty context yields %+v", tc)
	}
	in := TraceContext{TraceID: 7, SpanID: 9, Sampled: true}
	if got := TraceFrom(ContextWithTrace(ctx, in)); got != in {
		t.Fatalf("got %+v, want %+v", got, in)
	}
	// Unsampled contexts are deliberately not attached.
	unsampled := TraceContext{TraceID: 7, SpanID: 9}
	if got := TraceFrom(ContextWithTrace(ctx, unsampled)); got != (TraceContext{}) {
		t.Fatalf("unsampled context attached: %+v", got)
	}
}

// TestAdopt: only a sampled context takes the recorder; the trace fields
// pass through unchanged either way, and Emit chains parent to child.
func TestAdopt(t *testing.T) {
	rec := NewSpanRecorder("n0", 16)
	unsampled := rec.Adopt(TraceContext{TraceID: 7, SpanID: 9})
	unsampled.Start(SpanRequest).Finish(0)
	unsampled.Emit(SpanMoved, time.Now(), 0, 0)
	if got := rec.Snapshot(); len(got) != 0 {
		t.Fatalf("an unsampled adopted context recorded %+v", got)
	}
	if unsampled != (TraceContext{TraceID: 7, SpanID: 9}) {
		t.Fatalf("Adopt changed an unsampled context: %+v", unsampled)
	}
	tc := rec.Adopt(TraceContext{TraceID: 7, SpanID: 9, Sampled: true})
	if tc.TraceID != 7 || tc.SpanID != 9 || !tc.Sampled {
		t.Fatalf("Adopt changed the trace fields: %+v", tc)
	}
	child := tc.Emit(SpanRequest, time.Now(), 0, 1).Emit(SpanQueueWait, time.Now(), 0, 0)
	spans := rec.TraceSpans(7)
	if len(spans) != 2 || spans[0].Parent != 9 || spans[1].Parent != spans[0].Span || Hex64(child.SpanID) != spans[1].Span {
		t.Fatalf("emitted chain %+v, want request under span 9 and queue_wait under it", spans)
	}
}

func TestSpanRecorderConcurrent(t *testing.T) {
	rec := NewSpanRecorder("n0", 128)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tc := rec.Adopt(TraceContext{TraceID: uint64(g + 1), Sampled: true})
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s := tc.Start(SpanDiskRead)
				s.Finish(int64(i))
			}
		}(g)
	}
	deadline := time.After(50 * time.Millisecond)
	for done := false; !done; {
		select {
		case <-deadline:
			done = true
		default:
			for _, s := range rec.Snapshot() {
				if s.Trace == 0 || s.Span == 0 {
					t.Error("snapshot surfaced an unpublished record")
					done = true
				}
			}
		}
	}
	close(stop)
	wg.Wait()
}

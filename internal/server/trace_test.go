package server

import (
	"context"
	"testing"

	"repro/internal/db"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/storage/file"
)

// TestAdoptedTraceReachesEveryLayer: the server's Config.Spans is the only
// recorder configured. A sampled request's trace, adopted there, carries it
// through the pool and the durable store, so their spans land in the
// server's ring under the request's trace id, each beneath a span of that
// trace; an unsampled request leaves none.
func TestAdoptedTraceReachesEveryLayer(t *testing.T) {
	leakcheck.Check(t)
	store, err := file.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewSpanRecorder("n", 1024)
	// 64 customers fill 32 heap pages, past the 16 frames.
	srv, _ := startServer(t, db.Config{Frames: 16, Backend: store}, Config{Spans: rec}, 64)
	cl := dial(t, srv)

	const clientSpan = 1
	sampled := func(trace uint64) context.Context {
		return obs.ContextWithTrace(context.Background(),
			obs.TraceContext{TraceID: trace, SpanID: clientSpan, Sampled: true})
	}
	// spans returns trace's spans by kind, and by span id, after checking
	// that the request span hangs beneath the client's span and every other
	// span beneath a span of the trace.
	spans := func(trace uint64) (map[obs.SpanKind][]obs.SpanRecord, map[obs.Hex64]obs.SpanRecord) {
		t.Helper()
		byKind, byID := map[obs.SpanKind][]obs.SpanRecord{}, map[obs.Hex64]obs.SpanRecord{}
		all := rec.TraceSpans(trace)
		for _, s := range all {
			byKind[s.Kind] = append(byKind[s.Kind], s)
			byID[s.Span] = s
		}
		for _, s := range all {
			if s.Kind == obs.SpanRequest {
				if s.Parent != clientSpan {
					t.Errorf("trace %x: request span's parent %s, want the client's span %d", trace, s.Parent, clientSpan)
				}
			} else if _, ok := byID[s.Parent]; !ok {
				t.Errorf("trace %x: %s span's parent %s is no span of the trace", trace, s.Kind, s.Parent)
			}
		}
		return byKind, byID
	}

	// GET of customer 1, whose heap page the load left on disk.
	const get = 0xa1
	if _, err := cl.Get(sampled(get), 1); err != nil {
		t.Fatalf("get: %v", err)
	}
	byKind, byID := spans(get)
	chain := false
	for _, read := range byKind[obs.SpanDiskRead] {
		miss := byID[read.Parent]
		if miss.Kind == obs.SpanPoolMiss && byID[miss.Parent].Kind == obs.SpanPoolFetch {
			chain = true
		}
	}
	if !chain {
		t.Errorf("sampled get of a non-resident page left no pool_fetch → pool_miss → disk_read chain: %+v", rec.TraceSpans(get))
	}

	// UPDATE of the same customer: the durable write is logged and fsynced.
	const update = 0xa2
	if err := cl.Update(sampled(update), 1, 'u'); err != nil {
		t.Fatalf("update: %v", err)
	}
	byKind, _ = spans(update)
	for _, kind := range []obs.SpanKind{obs.SpanRequest, obs.SpanQueueWait, obs.SpanDiskWrite, obs.SpanWALAppend, obs.SpanWALFsync} {
		if len(byKind[kind]) == 0 {
			t.Errorf("sampled update left no %s span: %+v", kind, rec.TraceSpans(update))
		}
	}

	// Unsampled: a GET of another non-resident page and an UPDATE.
	before := len(rec.Snapshot())
	if _, err := cl.Get(context.Background(), 40); err != nil {
		t.Fatalf("get: %v", err)
	}
	if err := cl.Update(context.Background(), 40, 'v'); err != nil {
		t.Fatalf("update: %v", err)
	}
	if got := rec.Snapshot()[before:]; len(got) != 0 {
		t.Errorf("unsampled requests left %d spans: %+v", len(got), got)
	}
}

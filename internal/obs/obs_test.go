package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestBucketGeometry(t *testing.T) {
	// Every bucket's bounds must tile the value space: bucketOf maps each
	// bound back to the right bucket, and consecutive buckets abut.
	prevHi := uint64(0)
	for b := 0; b < numBuckets; b++ {
		lo, hi := bucketBounds(b)
		if lo != prevHi {
			t.Fatalf("bucket %d: lo=%d, want %d (buckets must abut)", b, lo, prevHi)
		}
		if bucketOf(lo) != b {
			t.Fatalf("bucketOf(%d)=%d, want %d", lo, bucketOf(lo), b)
		}
		if b < numBuckets-1 && bucketOf(hi-1) != b {
			t.Fatalf("bucketOf(%d)=%d, want %d", hi-1, bucketOf(hi-1), b)
		}
		prevHi = hi
	}
	// The top bucket must absorb the largest observable value.
	if got := bucketOf(math.MaxInt64); got != numBuckets-1 {
		t.Fatalf("bucketOf(MaxInt64)=%d, want %d", got, numBuckets-1)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	// 1..1000: quantiles are known and bucket error is bounded by the
	// geometry's 1/subBuckets relative width.
	for i := 1; i <= 1000; i++ {
		h.Observe(int64(i))
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count=%d, want 1000", s.Count)
	}
	if s.Max != 1000 {
		t.Fatalf("max=%d, want 1000", s.Max)
	}
	if s.Sum != 500500 {
		t.Fatalf("sum=%d, want 500500", s.Sum)
	}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.5, 500}, {0.95, 950}, {0.99, 990}, {1.0, 1000}} {
		got := s.Quantile(tc.q)
		if relErr := math.Abs(got-tc.want) / tc.want; relErr > 1.0/subBuckets {
			t.Errorf("q%.2f = %.1f, want %.1f ± %.0f%%", tc.q, got, tc.want, 100.0/subBuckets)
		}
	}
	if got := s.Quantile(1.0); got != 1000 {
		t.Errorf("q1.0 = %v, want exactly max=1000", got)
	}
}

func TestHistogramNegativeAndEmpty(t *testing.T) {
	var nilH *Histogram
	nilH.Observe(5) // must not panic
	nilH.ObserveSince(time.Now())
	if nilH.Count() != 0 || nilH.Summary().Count != 0 {
		t.Fatal("nil histogram must read as empty")
	}
	h := NewHistogram()
	if s := h.Snapshot(); s.Quantile(0.5) != 0 {
		t.Fatalf("empty quantile = %v, want 0", s.Quantile(0.5))
	}
	h.Observe(-17)
	if s := h.Snapshot(); s.Count != 1 || s.Counts[0] != 1 {
		t.Fatalf("negative observation must clamp to bucket 0, got %+v", s)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 1; i <= 500; i++ {
		a.Observe(int64(i))
	}
	for i := 501; i <= 1000; i++ {
		b.Observe(int64(i))
	}
	whole := NewHistogram()
	for i := 1; i <= 1000; i++ {
		whole.Observe(int64(i))
	}
	merged := a.Snapshot()
	merged.Merge(b.Snapshot())
	want := whole.Snapshot()
	if merged != want {
		t.Fatalf("merged snapshot differs from whole-stream snapshot")
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines while
// snapshots and merges run concurrently; run under -race this is the
// memory-safety proof, and the final snapshot must account for every
// observation exactly.
func TestHistogramConcurrent(t *testing.T) {
	const (
		writers = 8
		perG    = 20000
	)
	h := NewHistogram()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent reader: snapshot+merge+quantile must never trip the race detector
		defer wg.Done()
		acc := HistSnapshot{}
		for {
			select {
			case <-stop:
				return
			default:
				s := h.Snapshot()
				acc.Merge(s)
				_ = s.Quantile(0.99)
				_ = h.Summary()
			}
		}
	}()
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(int64(g*1000 + i%997))
			}
		}(g)
	}
	for h.Count() < writers*perG {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	s := h.Snapshot()
	if s.Count != writers*perG {
		t.Fatalf("count=%d, want %d", s.Count, writers*perG)
	}
	var bucketTotal uint64
	for _, c := range s.Counts {
		bucketTotal += c
	}
	if bucketTotal != s.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, s.Count)
	}
}

// TestGauge: a gauge is a scrape-time collector, read at each exposition;
// re-registering the same name+labels replaces the callback.
func TestGauge(t *testing.T) {
	r := NewRegistry()
	depth := 10.0
	r.GaugeFunc("queue_depth", "", nil, func() float64 { return depth })
	scrapeDepth := func() float64 {
		var sb strings.Builder
		if err := r.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		return parsePromText(t, sb.String())["queue_depth"]
	}
	if got := scrapeDepth(); got != 10 {
		t.Fatalf("gauge=%v, want 10", got)
	}
	depth = 7
	if got := scrapeDepth(); got != 7 {
		t.Fatalf("gauge=%v after the source moved, want 7", got)
	}
	r.GaugeFunc("queue_depth", "", nil, func() float64 { return -3 })
	if got := scrapeDepth(); got != -3 {
		t.Fatalf("gauge=%v after re-registration, want -3", got)
	}
}

func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("x_bytes", "help", Labels{"op": "get"})
	b := r.Histogram("x_bytes", "ignored on re-register", Labels{"op": "get"})
	if a != b {
		t.Fatal("same name+labels must return the same histogram")
	}
	other := r.Histogram("x_bytes", "", Labels{"op": "scan"})
	if other == a {
		t.Fatal("different labels must return a distinct histogram")
	}
	h1 := r.LatencyHistogram("lat_seconds", "", nil)
	h2 := r.LatencyHistogram("lat_seconds", "", nil)
	if h1 != h2 {
		t.Fatal("same histogram name must return the same instance")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch must panic")
		}
	}()
	r.GaugeFunc("x_bytes", "", nil, func() float64 { return 0 })
}

// TestRegistryConcurrent registers from many goroutines while WriteText
// and HistogramSummaries iterate; under -race this is the registration/
// iteration safety proof.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var sb strings.Builder
				if err := r.WriteText(&sb); err != nil {
					t.Error(err)
					return
				}
				_ = r.HistogramSummaries()
			}
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c := r.Histogram(fmt.Sprintf("fam_%d", i%20), "", Labels{"g": strconv.Itoa(g)})
				c.Observe(int64(i))
				r.CounterFunc(fmt.Sprintf("cf_%d_total", i%5), "", nil, func() float64 { return 1 })
				h := r.Histogram(fmt.Sprintf("hist_%d", i%10), "", nil)
				h.Observe(int64(i))
				r.GaugeFunc(fmt.Sprintf("gf_%d", i%5), "", nil, func() float64 { return 1 })
			}
		}(g)
	}
	// Let writers and the scraping reader overlap, then stop the reader
	// and join everything.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(10 * time.Millisecond)
	close(stop)
	<-done
	// Every writer's series must have survived concurrent registration.
	var total uint64
	for i := 0; i < 20; i++ {
		for g := 0; g < 8; g++ {
			total += r.Histogram(fmt.Sprintf("fam_%d", i), "", Labels{"g": strconv.Itoa(g)}).Count()
		}
	}
	if total != 8*200 {
		t.Fatalf("observation total across families = %d, want %d", total, 8*200)
	}
}

func TestWriteTextFormat(t *testing.T) {
	r := NewRegistry()
	var hits atomic.Uint64
	hits.Add(42)
	r.CounterFunc("pool_hits_total", "Buffer pool hits.", nil, func() float64 { return float64(hits.Load()) })
	r.GaugeFunc("queue_depth", "", Labels{"srv": "a"}, func() float64 { return 7 })
	h := r.LatencyHistogram("req_seconds", "Request latency.", Labels{"op": "get"})
	h.Observe(int64(2 * time.Millisecond))
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE pool_hits_total counter",
		"pool_hits_total 42",
		`queue_depth{srv="a"} 7`,
		"# TYPE req_seconds summary",
		`req_seconds{op="get",quantile="0.99"}`,
		`req_seconds_count{op="get"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// The one recorded 2ms observation must read back in seconds within
	// the bucket geometry's error.
	vals := parsePromText(t, out)
	p99 := vals[`req_seconds{op="get",quantile="0.99"}`]
	if p99 < 0.002*(1-1.0/subBuckets) || p99 > 0.002*(1+1.0/subBuckets) {
		t.Errorf("p99 = %v s, want ~0.002 s", p99)
	}
}

// parsePromText parses `name{labels} value` sample lines into a map,
// skipping comments. Shared by the end-to-end tests.
func parsePromText(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[idx+1:], 64)
		if err != nil {
			t.Fatalf("malformed value in %q: %v", line, err)
		}
		out[line[:idx]] = v
	}
	return out
}

func TestEvictionTraceRing(t *testing.T) {
	var nilT *EvictionTrace
	nilT.Record(TraceRecord{Kind: TraceEvict}) // no-op
	if nilT.Snapshot() != nil {
		t.Fatal("nil trace must read empty")
	}
	tr := NewEvictionTrace(4)
	for i := 1; i <= 6; i++ {
		tr.Record(TraceRecord{Kind: TraceEvict, Page: int64(i), Clock: int64(i * 10)})
	}
	got := tr.Snapshot()
	if len(got) != 4 {
		t.Fatalf("snapshot len=%d, want 4", len(got))
	}
	for i, rec := range got {
		wantPage := int64(i + 3) // pages 3..6 survive
		if rec.Page != wantPage || rec.Seq != uint64(i+3) {
			t.Fatalf("record %d = %+v, want page %d seq %d", i, rec, wantPage, i+3)
		}
	}
}

// TestTraceKindStrings also pins the kind set: victim selections and
// corruption fates, nothing else (collapses and purges are counters).
func TestTraceKindStrings(t *testing.T) {
	for kind, want := range map[TraceKind]string{
		0: "unknown", TraceEvict: "evict", TraceCorrupt: "corrupt", TraceCorrupt + 1: "unknown",
	} {
		if kind.String() != want {
			t.Errorf("TraceKind(%d).String() = %q, want %q", kind, kind.String(), want)
		}
	}
}

func TestTraceRecordJSONRoundTrip(t *testing.T) {
	in := TraceRecord{Seq: 7, Kind: TraceEvict, Page: 42, Clock: 100, KDist: KDistInfinite}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"kind":"evict"`) {
		t.Fatalf("kind not serialised by name: %s", b)
	}
	var out TraceRecord
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
	if err := json.Unmarshal([]byte(`{"kind":"smelt"}`), &out); err == nil {
		t.Fatal("unknown kind name must not decode")
	}
}

func TestHandlerServesMetricsAndPprof(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("demo_total", "", nil, func() float64 { return 3 })
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			sb.WriteString(sc.Text())
			sb.WriteByte('\n')
		}
		return resp.StatusCode, sb.String()
	}

	code, body := get("/metrics")
	if code != 200 || !strings.Contains(body, "demo_total 3") {
		t.Fatalf("/metrics: code=%d body=%q", code, body)
	}
	// The scrape counter itself must appear (self-observability) and count
	// the scrape we just made.
	if !strings.Contains(body, "lruk_obs_scrapes_total 1") {
		t.Errorf("/metrics missing its own scrape counter:\n%s", body)
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/ code=%d, want 200", code)
	}
}

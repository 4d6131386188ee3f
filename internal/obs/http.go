package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
)

// Health is the readiness report served on /healthz. Serving gates the
// status code; the rest is context for whoever is polling.
type Health struct {
	// Serving is true once the node accepts requests and has not begun
	// draining; false yields a 503 so scripts and balancers can poll the
	// one field that matters.
	Serving bool `json:"serving"`
	// ViewEpoch is the cluster membership epoch the node holds (0 when
	// standalone).
	ViewEpoch uint64 `json:"view_epoch"`
	// RecoveryDone is true once crash recovery (when the backend needed
	// any) has completed; true for backends with nothing to recover.
	RecoveryDone bool `json:"recovery_done"`
	// Node is the node's cluster identity, if it has one.
	Node string `json:"node,omitempty"`
}

// HandlerOption extends the observability mux with optional endpoints.
type HandlerOption func(mux *http.ServeMux)

// WithHealth mounts /healthz: 200 with the Health JSON while the node is
// serving, 503 otherwise. The callback is evaluated per request, so the
// endpoint tracks drains and view changes live.
func WithHealth(health func() Health) HandlerOption {
	return func(mux *http.ServeMux) {
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			h := health()
			w.Header().Set("Content-Type", "application/json")
			if !h.Serving {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			_ = json.NewEncoder(w).Encode(h)
		})
	}
}

// spansReply is the /spans response body.
type spansReply struct {
	Node  string       `json:"node"`
	Spans []SpanRecord `json:"spans"`
}

// WithSpans mounts /spans: the node's retained span ring as JSON, oldest
// first, optionally filtered to one trace with ?trace=<16-hex-digit id>.
// The cluster-wide assembler (lrukcluster trace) fetches this endpoint
// from every node and stitches the tree.
func WithSpans(rec *SpanRecorder) HandlerOption {
	return func(mux *http.ServeMux) {
		mux.HandleFunc("/spans", func(w http.ResponseWriter, req *http.Request) {
			var spans []SpanRecord
			if q := req.URL.Query().Get("trace"); q != "" {
				id, err := ParseHex64(q)
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				spans = rec.TraceSpans(uint64(id))
			} else {
				spans = rec.Snapshot()
			}
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(spansReply{Node: rec.Node(), Spans: spans})
		})
	}
}

// Handler returns the observability HTTP mux for a registry:
//
//	/metrics        Prometheus text exposition of every family
//	/debug/pprof/*  the standard runtime profiles (CPU, heap, goroutine,
//	                block, mutex, trace) via net/http/pprof
//
// plus whatever the options mount (/healthz via WithHealth, /spans via
// WithSpans). The pprof handlers are mounted explicitly rather than
// through the package's DefaultServeMux side effect, so importing obs
// never exposes profiles on a mux the caller did not ask for. Additional
// endpoints (an eviction-trace dump, say) can be added to the returned
// mux.
func Handler(r *Registry, opts ...HandlerOption) *http.ServeMux {
	mux := http.NewServeMux()
	var scrapes atomic.Uint64
	r.CounterFunc("lruk_obs_scrapes_total", "Number of /metrics scrapes served.", nil,
		func() float64 { return float64(scrapes.Load()) })
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		scrapes.Add(1)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for _, opt := range opts {
		opt(mux)
	}
	return mux
}

package cluster_test

import (
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/db"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/server"
)

// TestRebalanceObservability runs a node removal under a trace the
// coordinator adopted into its span recorder and checks the run left the
// promised artifacts: one rebalance_phase span per phase, all under the
// configured trace and in execution order. The spans are each phase's one
// timing.
func TestRebalanceObservability(t *testing.T) {
	leakcheck.Check(t)
	const customers = 400
	_, view := startNodes(t, 3, customers, db.Config{Frames: 64}, server.Config{})
	shrunk, err := cluster.Without(view, "n2")
	if err != nil {
		t.Fatal(err)
	}

	rec := obs.NewSpanRecorder("coordinator", 64)
	trace := rec.Adopt(obs.TraceContext{TraceID: rec.NewTraceID(), SpanID: rec.NewTraceID(), Sampled: true})
	err = cluster.Rebalance(obs.ContextWithTrace(context.Background(), trace), view, shrunk,
		cluster.RebalanceConfig{Keys: customers}.WithBatchSize(64))
	if err != nil {
		t.Fatalf("rebalance: %v", err)
	}

	spans := rec.TraceSpans(trace.TraceID)
	if len(spans) != 4 {
		t.Fatalf("trace holds %d spans, want 4 phase spans: %+v", len(spans), spans)
	}
	for i, s := range spans {
		if s.Kind != obs.SpanRebalancePhase {
			t.Errorf("span %d kind = %v, want rebalance_phase", i, s.Kind)
		}
		if got := cluster.RebalancePhaseName(int(s.Annot)); int(s.Annot) != i {
			t.Errorf("span %d annot = %d (%s), want phase index %d", i, s.Annot, got, i)
		}
		if s.Parent != obs.Hex64(trace.SpanID) {
			t.Errorf("span %d parent = %s, want the run's root span %016x", i, s.Parent, trace.SpanID)
		}
	}
}

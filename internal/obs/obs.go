// Package obs is the repository's observability subsystem: a low-overhead
// metrics layer every storage tier (core policy, disk, buffer pool, db,
// network server) records into, and two exposition paths read out of — a
// Prometheus-text /metrics HTTP handler (with net/http/pprof mounted
// alongside) and histogram summaries carried on the STATS wire response.
//
// The paper's whole argument is measured behavior (Tables 4.1-4.3 compare
// hit ratios and disk-access economics across policies); this package is
// the production analogue of those measurements: the same counters, plus
// the latency distributions and policy-decision traces a deployed buffer
// service needs before any further tuning is trustworthy.
//
// Design constraints, in order:
//
//   - Allocation-free on the hot path. Histogram.Observe never allocates
//     and takes a handful of atomic operations; BenchmarkObsOverhead holds
//     an atomic counter add plus a histogram record to tens of
//     nanoseconds.
//   - Safe when absent. Every recording method is a no-op on a nil
//     receiver, so instrumented code paths carry optional *Histogram
//     fields and never branch on a config flag.
//   - One counter mechanism. Every counter and gauge is a CounterFunc /
//     GaugeFunc collector evaluated at scrape time over an atomic its
//     layer already keeps (pool counters, disk ledgers, server totals), so
//     exposing it costs the recording path nothing: a value worth
//     exposing already lives somewhere.
//
// See DESIGN.md §12 for the metric catalog and the histogram bucket
// scheme.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Kind classifies a metric family for exposition.
type Kind uint8

// Metric kinds. Counters are cumulative and monotone, gauges are
// point-in-time values, histograms are mergeable log-bucket distributions
// exposed as Prometheus summaries (precomputed quantiles).
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "summary"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Labels are a metric's constant label set. Instruments are registered
// with their full label values up front (e.g. op="get"), so the hot path
// holds a direct handle and never formats a label.
type Labels map[string]string

// render flattens labels into the canonical `k="v",...` form, sorted by
// key, used both for series identity and for exposition.
func (l Labels) render() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, l[k])
	}
	return b.String()
}

// series is one labeled instrument inside a family.
type series struct {
	labels string // rendered label set (series identity within the family)

	hist *Histogram
	// fn is a counter or gauge family's scrape-time collector over a value
	// that already lives elsewhere (pool counters, disk atomics); it
	// costs the recording path nothing.
	fn func() float64
}

// family groups series sharing one metric name, kind and help string.
type family struct {
	name string
	kind Kind
	help string
	// scale multiplies raw histogram values at exposition (1e-9 turns
	// recorded nanoseconds into the _seconds unit Prometheus expects).
	// 0 means 1. Counters and gauges are never scaled.
	scale  float64
	series []*series
	byLbl  map[string]*series
}

// Registry holds labeled metric families. Registration is idempotent —
// asking for an existing name+labels returns the existing instrument —
// and safe for concurrent use, including concurrently with exposition.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// lookup returns (creating if needed) the family and the series slot for
// name+labels, enforcing kind consistency. Callers hold no locks.
func (r *Registry) lookup(name string, kind Kind, help string, labels Labels, scale float64) *series {
	if name == "" {
		panic("obs: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, kind: kind, help: help, scale: scale, byLbl: make(map[string]*series)}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %v, was %v", name, kind, f.kind))
	}
	lbl := labels.render()
	s := f.byLbl[lbl]
	if s == nil {
		s = &series{labels: lbl}
		f.byLbl[lbl] = s
		f.series = append(f.series, s)
	}
	return s
}

// CounterFunc registers a scrape-time collector as a counter series: fn is
// evaluated at each exposition, so a counter that already exists as an
// atomic elsewhere (a pool counter, a disk ledger) is exposed without
// adding a single instruction to its recording path. Re-registering the
// same name+labels replaces the callback.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	r.collector(name, KindCounter, help, labels, fn)
}

// GaugeFunc registers a scrape-time gauge collector (see CounterFunc).
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.collector(name, KindGauge, help, labels, fn)
}

func (r *Registry) collector(name string, kind Kind, help string, labels Labels, fn func() float64) {
	s := r.lookup(name, kind, help, labels, 0)
	r.mu.Lock()
	defer r.mu.Unlock()
	s.fn = fn
}

// Histogram returns the histogram registered under name+labels, creating
// it on first use. Observations are raw int64 values exposed unscaled; use
// LatencyHistogram for nanosecond timings.
func (r *Registry) Histogram(name, help string, labels Labels) *Histogram {
	return r.histogram(name, help, labels, 1)
}

// LatencyHistogram returns a histogram whose observations are nanoseconds
// and whose exposition is scaled to seconds, matching the Prometheus
// convention for *_seconds families.
func (r *Registry) LatencyHistogram(name, help string, labels Labels) *Histogram {
	return r.histogram(name, help, labels, 1e-9)
}

func (r *Registry) histogram(name, help string, labels Labels, scale float64) *Histogram {
	s := r.lookup(name, KindHistogram, help, labels, scale)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.hist == nil {
		s.hist = NewHistogram()
		s.hist.scale = scale
	}
	return s.hist
}

// snapshotFamilies copies the family/series structure under the lock so
// exposition can run without holding it (collector callbacks may take
// other locks, e.g. a pool stats aggregation).
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, len(r.families))
	copy(out, r.families)
	return out
}

// snapshotSeries copies f's series by value under the lock: exposition
// then reads each instrument pointer and collector callback race-free
// while a concurrent registration fills or replaces them.
func (r *Registry) snapshotSeries(f *family) []series {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]series, len(f.series))
	for i, s := range f.series {
		out[i] = *s
	}
	return out
}

// HistogramSummaries returns the summary of every histogram series, keyed
// by `name` or `name{labels}`. The network server embeds this map in its
// STATS reply so remote tooling (lrukload's percentile report) reads the
// same distributions /metrics exposes.
func (r *Registry) HistogramSummaries() map[string]HistSummary {
	out := make(map[string]HistSummary)
	for _, f := range r.snapshotFamilies() {
		if f.kind != KindHistogram {
			continue
		}
		for _, s := range r.snapshotSeries(f) {
			if s.hist == nil {
				continue
			}
			key := f.name
			if s.labels != "" {
				key = f.name + "{" + s.labels + "}"
			}
			out[key] = s.hist.Summary()
		}
	}
	return out
}

package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file renders a Registry in the Prometheus text exposition format
// (version 0.0.4). Counters and gauges emit one sample per series;
// histograms emit the summary form — precomputed quantiles plus _sum and
// _count — which carries the p50/p95/p99 the log-bucket geometry supports
// without shipping hundreds of bucket lines per family.

// summaryQuantiles are the quantiles every histogram family exposes.
var summaryQuantiles = []struct {
	q     float64
	label string
}{
	{0.50, "0.5"},
	{0.95, "0.95"},
	{0.99, "0.99"},
	{1.0, "1"}, // clamped to the recorded max
}

// WriteText renders every family in the registry, sorted by name, in
// Prometheus text format. Collector callbacks (CounterFunc/GaugeFunc) are
// evaluated during the write, outside the registry lock.
func (r *Registry) WriteText(w io.Writer) error {
	fams := r.snapshotFamilies()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		series := r.snapshotSeries(f)
		sort.Slice(series, func(i, j int) bool { return series[i].labels < series[j].labels })
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " ")); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for i := range series {
			if err := writeSeries(w, f, &series[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	switch f.kind {
	case KindCounter, KindGauge:
		v := 0.0
		if s.fn != nil { // nil only while CounterFunc/GaugeFunc is registering it
			v = s.fn()
		}
		return writeSample(w, f.name, s.labels, "", v)
	case KindHistogram:
		if s.hist == nil {
			return nil
		}
		scale := f.scale
		if scale == 0 {
			scale = 1
		}
		snap := s.hist.Snapshot()
		for _, sq := range summaryQuantiles {
			v := snap.Quantile(sq.q) * scale
			if err := writeSample(w, f.name, s.labels, `quantile="`+sq.label+`"`, v); err != nil {
				return err
			}
		}
		if err := writeSample(w, f.name+"_sum", s.labels, "", float64(snap.Sum)*scale); err != nil {
			return err
		}
		if err := writeSample(w, f.name+"_count", s.labels, "", float64(snap.Count)); err != nil {
			return err
		}
		// Exemplars ride as an auxiliary sample per occupied slot, linking
		// the family's latency quartiles to concrete trace ids
		// (exemplar.go; slot 3 covers the p99 tail).
		for i, e := range s.hist.Exemplars() {
			if e == nil {
				continue
			}
			extra := fmt.Sprintf(`slot="%d",trace_id="%016x"`, i, e.TraceID)
			if err := writeSample(w, f.name+"_exemplar", s.labels, extra, float64(e.Value)*scale); err != nil {
				return err
			}
		}
		return nil
	}
	return nil
}

// writeSample emits one `name{labels} value` line. extra is an additional
// rendered label pair (the summary quantile), appended after the series
// labels.
func writeSample(w io.Writer, name, labels, extra string, v float64) error {
	lbl := labels
	if extra != "" {
		if lbl != "" {
			lbl += ","
		}
		lbl += extra
	}
	if lbl != "" {
		lbl = "{" + lbl + "}"
	}
	_, err := fmt.Fprintf(w, "%s%s %s\n", name, lbl, formatFloat(v))
	return err
}

// formatFloat renders v the way Prometheus clients do: integral values
// without an exponent, everything else in shortest round-trip form.
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ompcloud/internal/trace/span"
)

// traceCapacity bounds the traced run's span recorder. It is sized so that
// nothing is dropped in a run of the workloads' lengths; the ledger reports
// trace.spans_dropped and the run fails if it is not 0.
const traceCapacity = 1 << 22

// exportOps is how many ops of the traced phase the Chrome trace covers;
// the ledger itself uses every op.
const exportOps = 20

// spanSlack absorbs the sub-microsecond skew between the benchmark's own
// timestamps and the recorder's clock when deciding whether a span lies
// inside an op.
const spanSlack = 5 * time.Microsecond

// tracing is the traced phase's view of the process-global span recorder.
type tracing struct {
	rec   *span.Recorder
	epoch time.Time // wall time of the recorder's zero

	host []span.Span // host-track spans sorted by start, read once

	// exportFrom/exportTo bound the ops the Chrome trace covers.
	exportFrom, exportTo time.Duration
}

func startTracing() *tracing {
	rec := span.Enable(span.Options{Capacity: traceCapacity})
	now := time.Now()
	return &tracing{rec: rec, epoch: now.Add(-rec.Now().Real())}
}

// offset maps a wall timestamp onto the recorder's clock.
func (t *tracing) offset(at time.Time) time.Duration { return at.Sub(t.epoch) }

// hostSpans snapshots the host-track spans, sorted by start.
func (t *tracing) hostSpans() []span.Span {
	if t.host != nil {
		return t.host
	}
	for _, sp := range t.rec.Spans() {
		if sp.Track == span.TrackHost && !sp.Instant {
			t.host = append(t.host, sp)
		}
	}
	sort.Slice(t.host, func(i, j int) bool { return t.host[i].Start < t.host[j].Start })
	return t.host
}

// window sets the interval of ops the exported Chrome trace covers.
func (t *tracing) window(from, to time.Time) {
	t.exportFrom, t.exportTo = t.offset(from), t.offset(to)
}

// export writes the Chrome trace of the export window: every span, on
// either track, emitted between the first and the last host span inside
// the window. Ops emit their virtual-timeline layout while they run, so
// the ID range carries it along.
func (t *tracing) export(path string) (int, error) {
	var lo, hi span.ID
	for _, sp := range spansWithin(t.hostSpans(), t.exportFrom, t.exportTo) {
		if lo == 0 || sp.ID < lo {
			lo = sp.ID
		}
		if sp.ID > hi {
			hi = sp.ID
		}
	}
	var out []span.Span
	for _, sp := range t.rec.Spans() {
		if sp.ID >= lo && sp.ID <= hi {
			out = append(out, sp)
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	var buf bytes.Buffer
	if err := span.WriteChrome(&buf, out, t.rec.Dropped()); err != nil {
		return 0, err
	}
	return len(out), os.WriteFile(path, buf.Bytes(), 0o644)
}

// checkTrace validates an exported trace with the repository's
// ompcloud-tracecheck binary.
func checkTrace(path, tracecheck string) error {
	out, err := exec.Command(tracecheck, path).CombinedOutput()
	if err != nil {
		return fmt.Errorf("%s: %v: %s", tracecheck, err, bytes.TrimSpace(out))
	}
	return nil
}

// spansWithin returns the spans (sorted by start) lying inside [lo, hi].
func spansWithin(spans []span.Span, lo, hi time.Duration) []span.Span {
	i := sort.Search(len(spans), func(i int) bool { return spans[i].Start.Real() >= lo-spanSlack })
	var out []span.Span
	for ; i < len(spans) && spans[i].Start.Real() <= hi; i++ {
		if spans[i].End.Real() <= hi+spanSlack {
			out = append(out, spans[i])
		}
	}
	return out
}

// interval is a closed stretch of the recorder's clock.
type interval struct{ lo, hi time.Duration }

func (iv interval) len() time.Duration { return iv.hi - iv.lo }

// covered reports how much of [lo, hi] the union of ivs covers.
func covered(lo, hi time.Duration, ivs []interval) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		iv.lo, iv.hi = max(iv.lo, lo), min(iv.hi, hi)
		if iv.hi > iv.lo {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var sum time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case iv.lo <= cur.hi:
			cur.hi = max(cur.hi, iv.hi)
		default:
			sum += cur.len()
			cur = iv
		}
	}
	return sum + cur.len()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// isChildSpan reports whether a program span is one of the offload
// layer's children: a transfer leg, a Spark job or a chunk operation.
// offload.self_ms_per_op is op time none of them covers.
func isChildSpan(name string) bool {
	return strings.HasPrefix(name, "leg.") || strings.HasPrefix(name, "spark.job") ||
		strings.HasPrefix(name, "chunk.")
}

// spanTotals sums the program's host spans by layer.
type spanTotals struct {
	jobMS, compressMS float64
	puts, gets        []float64 // chunk PUT and GET durations, ms
}

func (t *spanTotals) add(sp span.Span) {
	d := ms(sp.Len().Real())
	switch {
	case strings.HasPrefix(sp.Name, "spark.job"):
		t.jobMS += d
	case sp.Name == "chunk.compress":
		t.compressMS += d
	case sp.Name == "chunk.put":
		t.puts = append(t.puts, d)
	case sp.Name == "chunk.get":
		t.gets = append(t.gets, d)
	}
}

// perOp writes the span-derived ledger entries over n ops.
func (t *spanTotals) perOp(L map[string]float64, n float64) {
	L["spark.job_ms_per_op"] = t.jobMS / n
	L["xcompress.compress_ms_per_op"] = t.compressMS / n
	L["chunkio.put_p50_ms"] = median(t.puts)
	L["chunkio.get_p50_ms"] = median(t.gets)
}

package main

import "time"

// spanKind names a layer boundary the traced loop times.
type spanKind uint8

const (
	spCell spanKind = iota
	spGenerate
	spNew
	spBegin
	spRun
	spStepRead
	spStepBuffered
	spStepDirect
	spStepTrim
	spTick
	spFlush
	spDecide
	spApply
	spResults
	numSpanKinds
)

// stepSpan maps a trace.Kind (Read, BufferedWrite, DirectWrite, Trim) to
// its StepRequest span.
var stepSpan = [...]spanKind{spStepRead, spStepBuffered, spStepDirect, spStepTrim}

// span is one timed call: its kind, the span that caused it (-1 for the
// root), and its start and end in ns since the recorder's origin.
type span struct {
	kind       spanKind
	parent     int32
	start, end int64
}

// spanRecorder keeps one cell's spans in memory. It is used by a single
// goroutine; the cell id is the recorder's identity.
type spanRecorder struct {
	origin time.Time
	spans  []span
}

func newSpanRecorder(capacity int) *spanRecorder {
	return &spanRecorder{origin: time.Now(), spans: make([]span, 0, capacity)}
}

// open starts a span and returns its id.
func (r *spanRecorder) open(k spanKind, parent int32) int32 {
	r.spans = append(r.spans, span{kind: k, parent: parent, start: int64(time.Since(r.origin))})
	return int32(len(r.spans) - 1)
}

// close ends span id.
func (r *spanRecorder) close(id int32) {
	r.spans[id].end = int64(time.Since(r.origin))
}

// spanTotals folds spans by kind: call counts, summed durations, and the
// individual buffered-step durations (for their tail percentile).
type spanTotals struct {
	calls    [numSpanKinds]int64
	ns       [numSpanKinds]int64
	buffered []int64
}

func (t *spanTotals) add(r *spanRecorder) {
	for _, s := range r.spans {
		d := s.end - s.start
		t.calls[s.kind]++
		t.ns[s.kind] += d
		if s.kind == spStepBuffered {
			t.buffered = append(t.buffered, d)
		}
	}
}

func (t *spanTotals) merge(o *spanTotals) {
	for k := range t.calls {
		t.calls[k] += o.calls[k]
		t.ns[k] += o.ns[k]
	}
	t.buffered = append(t.buffered, o.buffered...)
}

// mean returns the mean duration of kind k in ns (0 without calls).
func (t *spanTotals) mean(k spanKind) float64 {
	return ratio(float64(t.ns[k]), float64(t.calls[k]))
}

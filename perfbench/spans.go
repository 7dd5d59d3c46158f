package main

// span is one timed call into a layer, recorded by the traced run from the
// benchmark's own files (no span lives inside the program). Spans are kept
// in memory and written out when the run ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 at top level
	Name   string `json:"name"`
	// Build numbers the traced build the span belongs to.
	Build int   `json:"build"`
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Alloc is the heap bytes allocated process-wide during the span.
	Alloc uint64 `json:"alloc_bytes"`
}

// spanRecorder records nested spans on one goroutine.
type spanRecorder struct {
	t0    int64
	rc    *runtimeCounters
	build int
	spans []span
	open  []int // stack of open span indices
	alloc []uint64
}

func newSpanRecorder() *spanRecorder {
	return &spanRecorder{t0: now(), rc: newRuntimeCounters()}
}

// begin opens a span nested in the innermost open one and returns its
// index for end.
func (r *spanRecorder) begin(name string) int {
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	id := len(r.spans)
	a, _ := r.rc.read()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Build: r.build, Start: now() - r.t0})
	r.open = append(r.open, id)
	r.alloc = append(r.alloc, a)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *spanRecorder) end(id int) {
	end := now() - r.t0
	a, _ := r.rc.read()
	top := len(r.open) - 1
	if r.open[top] != id {
		panic("perfbench: spans closed out of order")
	}
	r.spans[id].End = end
	r.spans[id].Alloc = a - r.alloc[top]
	r.open = r.open[:top]
	r.alloc = r.alloc[:top]
}

// abort closes every open span at the current time, after a replay that
// returned early with an error.
func (r *spanRecorder) abort() {
	for len(r.open) > 0 {
		r.end(r.open[len(r.open)-1])
	}
}

// layerTotals sums the spans of one build by name.
type layerTotals struct {
	wallNS map[string]int64
	alloc  map[string]uint64
	calls  map[string]int
	// selfNS is each name's total duration minus the part covered by its
	// direct children.
	selfNS map[string]int64
}

// totals aggregates the spans of build b.
func (r *spanRecorder) totals(b int) layerTotals {
	t := layerTotals{
		wallNS: map[string]int64{},
		alloc:  map[string]uint64{},
		calls:  map[string]int{},
		selfNS: map[string]int64{},
	}
	for _, s := range r.spans {
		if s.Build != b {
			continue
		}
		d := s.End - s.Start
		t.wallNS[s.Name] += d
		t.alloc[s.Name] += s.Alloc
		t.calls[s.Name]++
		t.selfNS[s.Name] += d
		if s.Parent >= 0 {
			t.selfNS[r.spans[s.Parent].Name] -= d
		}
	}
	return t
}

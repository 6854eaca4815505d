package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory and writes them out when the run ends.
// Recording is switched on and off so one traced run can also measure an
// untraced stretch of the same workload (the tracing overhead). A nil
// recorder records nothing.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// open is a started span; close it with (*recorder).end.
type open struct {
	id, parent, req int64
	name            string
	start           int64
}

// begin starts a span. It returns the zero open (id 0) when recording is
// off, which end ignores.
func (r *recorder) begin(name string, parent, req int64) open {
	if r == nil || !r.on.Load() {
		return open{}
	}
	return open{
		id: r.ids.Add(1), parent: parent, req: req, name: name,
		start: int64(time.Since(r.epoch)),
	}
}

// end closes a span begun while recording was on.
func (r *recorder) end(o open) {
	if o.id == 0 {
		return
	}
	e := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: o.id, Parent: o.parent, Req: o.req, Name: o.name, Start: o.start, End: e})
	r.mu.Unlock()
}

// newReq allocates a request id.
func (r *recorder) newReq() int64 {
	if r == nil {
		return 0
	}
	return r.ids.Add(1)
}

// count is the number of spans recorded so far.
func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// since returns the spans recorded after the first n.
func (r *recorder) since(n int) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans[n:]...)
}

// layerStat summarizes the spans of one name.
type layerStat struct {
	Count  int     `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	SelfMS float64 `json:"self_mean_ms"` // mean of duration minus child coverage
	SumMS  float64 `json:"sum_ms"`
}

// summary computes per-name totals and self times. A span's self time is
// its duration minus the part of its interval that its children cover
// (children are clipped to the parent and overlapping children counted
// once).
func (r *recorder) summary() map[string]layerStat {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]layerStat{}
	for _, s := range spans {
		d := float64(s.End - s.Start)
		self := d - covered(s, kids[s.ID])
		st := out[s.Name]
		st.Count++
		st.SumMS += d / 1e6
		st.SelfMS += self / 1e6
		out[s.Name] = st
	}
	for k, st := range out {
		st.MeanMS = st.SumMS / float64(st.Count)
		st.SelfMS /= float64(st.Count)
		out[k] = st
	}
	return out
}

// covered returns the nanoseconds of parent's interval covered by the
// union of the children's intervals.
func covered(parent span, children []span) float64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	for i, x := range iv {
		if i == 0 || x[0] > curE {
			total += curE - curS
			curS, curE = x[0], x[1]
			continue
		}
		curE = max(curE, x[1])
	}
	total += curE - curS
	return float64(total)
}

// writeFile writes every span plus the per-name summary as JSON.
func (r *recorder) writeFile(path string, meta map[string]any) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	b, err := json.Marshal(map[string]any{"host": meta, "summary": r.summary(), "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share a tid; parent links a span to the span that caused it (0 = root).
type span struct {
	id, parent int64
	tid        int64
	name       string
	workload   string
	start, end time.Time
}

// maxSpans caps the spans one process keeps in memory; later spans are
// counted and dropped so a long traced run cannot exhaust memory.
const maxSpans = 1 << 20

// tracer keeps spans in memory and writes them out when the run ends. A nil
// *tracer records nothing, which is how untraced passes run.
type tracer struct {
	mu       sync.Mutex
	workload string
	spans    []span
	nextID   int64
	dropped  int
}

// setWorkload tags the spans recorded from now on.
func (t *tracer) setWorkload(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.workload = name
}

// newID reserves a span id, so a parent's id can be handed to children
// before the parent ends.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// record stores a finished span under a reserved id (0 reserves one).
func (t *tracer) record(id, parent, tid int64, name string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		t.nextID++
		id = t.nextID
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return id
	}
	t.spans = append(t.spans, span{id: id, parent: parent, tid: tid, name: name,
		workload: t.workload, start: start, end: end})
	return id
}

// timed runs fn inside a span and returns how long it took.
func (t *tracer) timed(parent, tid int64, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.record(0, parent, tid, name, start, end)
	return end.Sub(start)
}

// selfTime is one row of the per-layer table: spans of one name, their
// summed duration, and their summed self time — each span's duration minus
// the part of it its children cover.
type selfTime struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes computes the per-name table for one workload's spans.
func (t *tracer) selfTimes(workload string) []selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]*span{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.workload == workload && s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	rows := map[string]*selfTime{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.workload != workload {
			continue
		}
		r := rows[s.name]
		if r == nil {
			r = &selfTime{name: s.name}
			rows[s.name] = r
		}
		dur := s.end.Sub(s.start)
		r.count++
		r.total += dur
		r.self += dur - covered(s, children[s.id])
	}
	out := make([]selfTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// covered is how much of parent's interval the union of kids covers;
// children may overlap (a fleet sweep's shards run concurrently).
func covered(parent *span, kids []*span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.start, k.end
		if a.Before(parent.start) {
			a = parent.start
		}
		if b.After(parent.end) {
			b = parent.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// writeChrome writes every span as Chrome trace-event JSON ("X" complete
// events, microsecond timestamps), one process row per workload, viewable in
// Perfetto or chrome://tracing.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := t.encodeChrome(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (t *tracer) encodeChrome(w io.Writer) error {
	type event struct {
		Name string           `json:"name"`
		Cat  string           `json:"cat"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int64            `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	var t0 time.Time
	pids := map[string]int{}
	for _, s := range t.spans {
		if t0.IsZero() || s.start.Before(t0) {
			t0 = s.start
		}
		if _, ok := pids[s.workload]; !ok {
			pids[s.workload] = len(pids) + 1
		}
	}
	if _, err := io.WriteString(w, `{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		if i > 0 {
			io.WriteString(w, ",")
		}
		err := enc.Encode(event{
			Name: s.name, Cat: s.workload, Ph: "X",
			Ts:  float64(s.start.Sub(t0).Nanoseconds()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Pid: pids[s.workload], Tid: s.tid,
			Args: map[string]int64{"span": s.id, "parent": s.parent},
		})
		if err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "],\"otherData\":{\"dropped_spans\":%d}}\n", t.dropped)
	return err
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// its own call sites (nothing inside the program under test records
// spans). Times are nanoseconds since the tracer was created.
type span struct {
	Name       string
	Start, End int64
	Parent     int    // index of the causing span, -1 for a root
	Op         uint64 // the op (vector, cycle, round) the span belongs to
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// tracing off: begin returns -1 and end ignores it, so call sites need no
// branches of their own.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(name string, parent int, op uint64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
}

// child returns a tracer on the same time base, for a second goroutine: a
// tracer is not safe for concurrent use. The parent adopts the child's
// spans when that goroutine has ended.
func (t *tracer) child(capacity int) *tracer {
	return &tracer{t0: t.t0, spans: make([]span, 0, capacity)}
}

func (t *tracer) adopt(c *tracer) {
	if t == nil || c == nil {
		return
	}
	base := len(t.spans)
	for _, s := range c.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// durationsUS returns the durations of every finished span with the given
// name, in microseconds.
func durationsUS(spans []span, name string) []float64 {
	var out []float64
	for i := range spans {
		if spans[i].Name == name && spans[i].End > 0 {
			out = append(out, float64(spans[i].End-spans[i].Start)/1e3)
		}
	}
	return out
}

// selfTimes returns, per span name, the summed self time in nanoseconds: a
// span's duration minus the part of its interval that its direct children
// cover (overlapping children are counted once, and a child is clipped to
// its parent).
func selfTimes(spans []span) map[string]int64 {
	type iv struct{ a, b int64 }
	children := make(map[int][]iv)
	for i := range spans {
		if p := spans[i].Parent; p >= 0 && spans[i].End > 0 {
			children[p] = append(children[p], iv{spans[i].Start, spans[i].End})
		}
	}
	out := make(map[string]int64)
	for i := range spans {
		s := &spans[i]
		if s.End == 0 {
			continue
		}
		kids := children[i]
		sort.Slice(kids, func(x, y int) bool { return kids[x].a < kids[y].a })
		var covered int64
		cur := s.Start
		for _, k := range kids {
			a, b := k.a, k.b
			if a < cur {
				a = cur
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				covered += b - a
				cur = b
			}
		}
		out[s.Name] += (s.End - s.Start) - covered
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace format,
// which ui.perfetto.dev and chrome://tracing load directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes the spans as Chrome-trace JSON. Each root span
// and its descendants share a tid, so one op reads as one nested track.
func writeChromeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	_, _ = w.WriteString("{\"traceEvents\":[\n") // bufio reports the first error at Flush
	first := true
	for i := range spans {
		s := &spans[i]
		if s.End == 0 {
			continue
		}
		if !first {
			_, _ = w.WriteString(",")
		}
		first = false
		ev := chromeEvent{
			Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: int(s.Op % 64),
			Args: map[string]any{"op": s.Op, "span": i, "parent": s.Parent},
		}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return fmt.Errorf("trace encode: %w", err)
		}
	}
	_, _ = w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace write: %w", err)
	}
	return f.Close()
}

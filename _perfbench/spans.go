package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// spanRec is one timed call: its name, start, end (nanoseconds since
// the run began) and the span that caused it (-1 for the root).
type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps a run's spans in memory until the run writes them out.
// It is safe for concurrent use; a nil tracer records nothing.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []spanRec
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// span is an open interval. With a nil tracer it still measures its
// own duration, so untraced code paths time calls the same way.
type span struct {
	t     *tracer
	id    int
	start time.Time
}

// root opens the run's top span.
func (t *tracer) root(name string) span { return span{t: t, id: -1}.child(name) }

// child opens a span caused by s.
func (s span) child(name string) span {
	c := span{t: s.t, id: -1, start: time.Now()}
	if s.t != nil {
		s.t.mu.Lock()
		c.id = len(s.t.spans)
		s.t.spans = append(s.t.spans, spanRec{ID: c.id, Parent: s.id, Name: name,
			Start: c.start.Sub(s.t.origin).Nanoseconds(), End: -1})
		s.t.mu.Unlock()
	}
	return c
}

// end closes the span and returns its duration.
func (s span) end() time.Duration {
	now := time.Now()
	if s.t != nil {
		s.t.mu.Lock()
		s.t.spans[s.id].End = now.Sub(s.t.origin).Nanoseconds()
		s.t.mu.Unlock()
	}
	return now.Sub(s.start)
}

// timed runs fn inside a child span of s and returns its duration.
func (s span) timed(name string, fn func()) time.Duration {
	c := s.child(name)
	fn()
	return c.end()
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Name  string  `json:"name"`
	Calls int     `json:"calls"`
	Total float64 `json:"total_s"`
	// Self is Total minus the part of each span's interval that its
	// children cover (children of concurrent ranks may overlap; their
	// union is subtracted once).
	Self float64 `json:"self_s"`
}

// selfTimes returns per-name totals and self times, largest self first.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]spanRec)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	agg := map[string]*layerTime{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			agg[s.Name] = lt
		}
		dur := s.End - s.Start
		lt.Calls++
		lt.Total += float64(dur) / 1e9
		lt.Self += float64(dur-covered(s, kids[s.ID])) / 1e9
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered returns how much of p's interval the union of kids covers.
func covered(p spanRec, kids []spanRec) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi <= lo {
			continue
		}
		if lo > curHi {
			total += curHi - curLo
			curLo, curHi = lo, hi
		} else if hi > curHi {
			curHi = hi
		}
	}
	return total + curHi - curLo
}

// writeFile writes the spans and the per-name self times as JSON.
func (t *tracer) writeFile(path string) error {
	self := t.selfTimes()
	t.mu.Lock()
	blob, err := json.Marshal(struct {
		Spans []spanRec   `json:"spans"`
		Self  []layerTime `json:"self"`
	}{t.spans, self})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

func printSelfTimes(ts []layerTime) {
	fmt.Printf("# spans by self time\n# %-30s %8s %12s %12s\n", "name", "calls", "total_s", "self_s")
	for _, lt := range ts {
		fmt.Printf("# %-30s %8d %12.6f %12.6f\n", lt.Name, lt.Calls, lt.Total, lt.Self)
	}
}

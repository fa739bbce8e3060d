package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Aggregate spans
// (the per-record FASTQ decode) cover many calls: Busy is their summed
// time and Calls their number; a plain span has Calls == 0.
type span struct {
	ID     int
	Parent int // 0 for a root
	Name   string
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
	Busy   time.Duration
	Calls  int
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps a run's spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay only a nil check per call.
type tracer struct {
	run   string
	epoch time.Time

	mu    sync.Mutex
	spans []span // spans[i].ID == i+1
}

func newTracer(run string) *tracer {
	return &tracer{run: run, epoch: time.Now()}
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// aggregate records a finished span covering calls calls from start to
// end that were busy for busy in total.
func (t *tracer) aggregate(name string, parent int, start, end time.Time, busy time.Duration, calls int) {
	if t == nil || calls == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch), Busy: busy, Calls: calls})
}

// snapshot returns the spans recorded so far; call it once the traced work
// has returned.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span name, the summed self time of its spans: a
// span's duration minus the part of it that its child spans cover. An
// aggregate span's self time is its busy time.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if s.Calls > 0 {
			out[s.Name] += s.Busy
		} else {
			out[s.Name] += s.dur() - covered(s, children[s.ID])
		}
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	lo, hi := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > hi {
			total += hi - lo
			lo, hi = s, e
		} else if e > hi {
			hi = e
		}
	}
	return total + hi - lo
}

// spanRecord is a span as written out: one JSON object per line.
type spanRecord struct {
	Run    string  `json:"run"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Busy   float64 `json:"busy_s,omitempty"`
	Calls  int     `json:"calls,omitempty"`
}

// record is the span as written out.
func (s span) record(run string) spanRecord {
	return spanRecord{Run: run, ID: s.ID, Parent: s.Parent, Name: s.Name,
		Start: s.Start.Seconds(), End: s.End.Seconds(), Busy: s.Busy.Seconds(), Calls: s.Calls}
}

package main

import (
	"sort"
	"time"
)

// span is one timed call at a layer boundary. Spans live in memory for
// the whole traced run and are summarized when it ends.
type span struct {
	name       string
	op         int // operation the span belongs to
	parent     int // index of the enclosing span, -1 for a root
	start, end time.Duration
}

// recorder records spans from a single goroutine: the traced run pins
// the worker pool to one worker and performs one operation at a time, so
// spans nest strictly and self times add up.
type recorder struct {
	t0    time.Time
	spans []span
	stack []int
	op    int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under the innermost open span.
func (r *recorder) begin(name string) int {
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{name: name, op: r.op, parent: parent, start: time.Since(r.t0)})
	r.stack = append(r.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int) time.Duration {
	r.spans[id].end = time.Since(r.t0)
	r.stack = r.stack[:len(r.stack)-1]
	return r.spans[id].end - r.spans[id].start
}

// timeIt runs fn inside a span and returns its duration. A nil recorder
// only times fn: the untraced passes run the same code without spans.
func (r *recorder) timeIt(name string, fn func()) time.Duration {
	if r == nil {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	id := r.begin(name)
	fn()
	return r.end(id)
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its direct children (their union, clipped to the span).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := make([][2]time.Duration, 0, len(children[i]))
		for _, c := range children[i] {
			a, b := spans[c].start, spans[c].end
			if a < s.start {
				a = s.start
			}
			if b > s.end {
				b = s.end
			}
			if b > a {
				ivs = append(ivs, [2]time.Duration{a, b})
			}
		}
		self[i] = s.end - s.start - unionLength(ivs)
	}
	return self
}

// unionLength is the total length covered by a set of intervals.
func unionLength(ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curA, curB time.Duration
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			curA, curB, open = iv[0], iv[1], true
		case iv[0] <= curB:
			if iv[1] > curB {
				curB = iv[1]
			}
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerTotals sums self and total time and counts calls per span name.
type layerTotals struct {
	calls       int
	self, total time.Duration
}

// summarize totals the spans recorded from index from on (a span whose
// parent precedes from counts as a root).
func summarize(all []span, from int) map[string]*layerTotals {
	spans := make([]span, len(all)-from)
	for i, s := range all[from:] {
		if s.parent >= from {
			s.parent -= from
		} else {
			s.parent = -1
		}
		spans[i] = s
	}
	self := selfTimes(spans)
	out := map[string]*layerTotals{}
	for i, s := range spans {
		t := out[s.name]
		if t == nil {
			t = &layerTotals{}
			out[s.name] = t
		}
		t.calls++
		t.self += self[i]
		t.total += s.end - s.start
	}
	return out
}

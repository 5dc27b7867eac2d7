package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed call into a layer of the simulator: its name, the span
// that caused it (0 for a root) and its interval relative to the recorder's
// start.
type span struct {
	id, parent int
	name       string
	start, end time.Duration
	repeat     int
}

// spans is an in-memory span recorder for the benchmark's own calls into
// the simulator's public functions. A nil *spans records nothing, so
// untraced repeats pay no more than a nil check per boundary.
type spans struct {
	t0     time.Time
	repeat int
	list   []span
	stack  []int
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// begin opens a span under the innermost open one; the returned func
// closes it.
func (s *spans) begin(name string) func() {
	if s == nil {
		return func() {}
	}
	parent := 0
	if n := len(s.stack); n > 0 {
		parent = s.stack[n-1]
	}
	id := len(s.list) + 1
	s.list = append(s.list, span{id: id, parent: parent, name: name, start: time.Since(s.t0), repeat: s.repeat})
	s.stack = append(s.stack, id)
	return func() {
		s.list[id-1].end = time.Since(s.t0)
		s.stack = s.stack[:len(s.stack)-1]
	}
}

// seconds sums the durations of the named spans recorded during one
// repeat.
func (s *spans) seconds(repeat int, name string) float64 {
	var d time.Duration
	for _, sp := range s.list {
		if sp.repeat == repeat && sp.name == name {
			d += sp.end - sp.start
		}
	}
	return d.Seconds()
}

// write prints one line per span name: call count, total and self time
// (total minus the part its child spans cover), in first-seen order.
func (s *spans) write(w io.Writer) {
	type agg struct {
		calls       int
		total, self time.Duration
	}
	byName := map[string]*agg{}
	var order []string
	for _, sp := range s.list {
		a := byName[sp.name]
		if a == nil {
			a = &agg{}
			byName[sp.name] = a
			order = append(order, sp.name)
		}
		d := sp.end - sp.start
		a.calls++
		a.total += d
		a.self += d
		if sp.parent != 0 {
			byName[s.list[sp.parent-1].name].self -= d
		}
	}
	sort.SliceStable(order, func(i, j int) bool { return byName[order[i]].total > byName[order[j]].total })
	fmt.Fprintf(w, "%-16s %6s %12s %12s\n", "span", "calls", "total ms", "self ms")
	for _, name := range order {
		a := byName[name]
		fmt.Fprintf(w, "%-16s %6d %12.3f %12.3f\n", name, a.calls, ms(a.total), ms(a.self))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

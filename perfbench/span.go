package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span is one timed call the benchmark made into a layer of the program.
// Start and End are offsets from the recorder's epoch; Parent is the
// index of the enclosing span in the recorder (-1 for a root span); Run
// numbers the timed run the span belongs to.
type Span struct {
	Name       string
	Start, End time.Duration
	Parent     int
	Run        int
}

// Duration is the span's wall-clock length.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Recorder keeps spans in memory for the traced mode. The simulations
// it brackets run on one goroutine, so the recorder is single-threaded:
// Begin and End nest like a call stack. Every method is a no-op on a nil
// *Recorder, which is how untraced runs pay nothing for the hooks.
type Recorder struct {
	epoch time.Time
	run   int
	spans []Span
	open  []int
}

// NewRecorder returns an empty recorder whose clock starts now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// StartRun tags every span begun from now on with a new run id.
func (r *Recorder) StartRun() {
	if r != nil {
		r.run++
	}
}

// Begin opens a span as a child of the innermost open span and returns
// its handle for End.
func (r *Recorder) Begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, Span{Name: name, Start: time.Since(r.epoch), Parent: parent, Run: r.run})
	r.open = append(r.open, id)
	return id
}

// End closes the span Begin returned. Spans must close innermost first.
func (r *Recorder) End(id int) {
	if r == nil {
		return
	}
	n := len(r.open)
	if n == 0 || r.open[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %d closed out of order", id))
	}
	r.spans[id].End = time.Since(r.epoch)
	r.open = r.open[:n-1]
}

// Spans returns every span recorded so far, in begin order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// LayerTimes sums, per span name, the total and the self time of the
// spans of one run. A span's self time is its duration minus the part of
// its interval that its child spans cover.
func LayerTimes(spans []Span, run int) (total, self map[string]time.Duration) {
	total = map[string]time.Duration{}
	self = map[string]time.Duration{}
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Run == run && s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i, s := range spans {
		if s.Run != run {
			continue
		}
		total[s.Name] += s.Duration()
		self[s.Name] += s.Duration() - covered(s, children[i])
	}
	return total, self
}

// covered returns how much of parent's interval the union of kids spans,
// each clipped to the parent.
func covered(parent Span, kids []Span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var sum, reach time.Duration
	for _, v := range ivs {
		if v.lo < reach {
			v.lo = reach
		}
		if v.hi > v.lo {
			sum += v.hi - v.lo
			reach = v.hi
		}
	}
	return sum
}

// WriteFile writes every span as one tab-separated line: run, index,
// parent, name, start and end in nanoseconds from the recorder's epoch.
func (r *Recorder) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "run\tspan\tparent\tname\tstart_ns\tend_ns")
	for i, s := range r.Spans() {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.Run, i, s.Parent, s.Name, s.Start.Nanoseconds(), s.End.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

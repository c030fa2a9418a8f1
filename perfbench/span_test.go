package main

import (
	"testing"
	"time"
)

func TestLayerTimesSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		// run 1: a root of 100 ms with two children that overlap each
		// other (10..40 and 30..50 cover 40 ms) and a grandchild inside
		// the first child.
		{Name: "root", Start: 0, End: 100 * ms, Parent: -1, Run: 1},
		{Name: "child", Start: 10 * ms, End: 40 * ms, Parent: 0, Run: 1},
		{Name: "child", Start: 30 * ms, End: 50 * ms, Parent: 0, Run: 1},
		{Name: "leaf", Start: 15 * ms, End: 20 * ms, Parent: 1, Run: 1},
		// A child that outlives its parent counts only inside it.
		{Name: "late", Start: 90 * ms, End: 120 * ms, Parent: 0, Run: 1},
		// run 2 must not leak into run 1.
		{Name: "root", Start: 200 * ms, End: 260 * ms, Parent: -1, Run: 2},
	}
	total, self := LayerTimes(spans, 1)
	want := map[string][2]time.Duration{
		"root":  {100 * ms, 100*ms - 40*ms - 10*ms},
		"child": {50 * ms, 50*ms - 5*ms},
		"leaf":  {5 * ms, 5 * ms},
		"late":  {30 * ms, 30 * ms},
	}
	for name, w := range want {
		if total[name] != w[0] || self[name] != w[1] {
			t.Errorf("%s: total %v self %v, want %v %v", name, total[name], self[name], w[0], w[1])
		}
	}
	if len(total) != len(want) {
		t.Errorf("run 1 has %d span names, want %d: %v", len(total), len(want), total)
	}
	total, self = LayerTimes(spans, 2)
	if total["root"] != 60*ms || self["root"] != 60*ms {
		t.Errorf("run 2 root: total %v self %v, want 60ms", total["root"], self["root"])
	}
}

func TestRecorderNesting(t *testing.T) {
	r := NewRecorder()
	r.StartRun()
	a := r.Begin("a")
	b := r.Begin("b")
	r.End(b)
	c := r.Begin("c")
	r.End(c)
	r.End(a)
	r.StartRun()
	d := r.Begin("d")
	r.End(d)
	got := r.Spans()
	wantParent := []int{-1, 0, 0, -1}
	wantRun := []int{1, 1, 1, 2}
	for i, s := range got {
		if s.Parent != wantParent[i] || s.Run != wantRun[i] || s.End < s.Start {
			t.Errorf("span %d %q: parent %d run %d [%v,%v]", i, s.Name, s.Parent, s.Run, s.Start, s.End)
		}
	}
	_, self := LayerTimes(got, 1)
	if self["a"] > got[0].Duration() || self["a"] < 0 {
		t.Errorf("self time of a = %v outside [0, %v]", self["a"], got[0].Duration())
	}

	var none *Recorder
	none.StartRun()
	none.End(none.Begin("x"))
	if none.Spans() != nil {
		t.Error("a nil recorder recorded spans")
	}
}

func TestRecorderRejectsCrossedSpans(t *testing.T) {
	r := NewRecorder()
	a := r.Begin("a")
	r.Begin("b")
	defer func() {
		if recover() == nil {
			t.Error("closing an outer span first did not panic")
		}
	}()
	r.End(a)
}

func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, c := range []struct {
		n        int
		pct, val float64
	}{
		{5, 50, 3},
		{20, 50, 10},
		{100, 90, 90},
		{1010, 99, 1000},
		{20000, 99.9, 19980},
	} {
		pct, val := tail(seq(c.n))
		if pct != c.pct || val != c.val {
			t.Errorf("n=%d: tail p%v=%v, want p%v=%v", c.n, pct, val, c.pct, c.val)
		}
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	if m := median(v); m != 3 {
		t.Errorf("median %v, want 3", m)
	}
	if q1, q3 := quartiles(v); q1 != 2 || q3 != 4 {
		t.Errorf("quartiles %v %v, want 2 4", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v, want 2.5", m)
	}
	if v[0] != 5 {
		t.Error("median sorted its argument in place")
	}
}

package main

import (
	"testing"
	"time"
)

func sp(id, parent int, name string, start, end time.Duration) span {
	return span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func TestSelfTimesNested(t *testing.T) {
	// root [0,100) with children a [10,40) and b [50,90); a has child c [20,30).
	spans := []span{
		sp(1, 0, "root", 0, 100),
		sp(2, 1, "a", 10, 40),
		sp(3, 2, "c", 20, 30),
		sp(4, 1, "b", 50, 90),
	}
	rows := selfTimes(spans)
	want := map[string]time.Duration{"root": 30, "a": 20, "c": 10, "b": 40}
	var sum time.Duration
	for _, r := range rows {
		if r.Self != want[r.Name] {
			t.Errorf("%s self = %v, want %v", r.Name, r.Self, want[r.Name])
		}
		sum += r.Self
	}
	if sum != 100 {
		t.Errorf("self times sum to %v, want the root's 100", sum)
	}
	if rows[0].Name != "b" {
		t.Errorf("rows not ordered by self time: first is %s", rows[0].Name)
	}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	// Two concurrent requests under one phase overlap on [30,40); the
	// phase's covered time is their union [10,60) = 50, not 30+30.
	spans := []span{
		sp(1, 0, "phase", 0, 100),
		sp(2, 1, "req", 10, 40),
		sp(3, 1, "req", 30, 60),
		sp(4, 1, "req", 200, 300), // outside the parent: clipped away
	}
	rows := selfTimes(spans)
	if got := selfOf(rows, "phase"); got != 50 {
		t.Errorf("phase self = %v, want 50", got)
	}
	for _, r := range rows {
		if r.Name == "req" && (r.Count != 3 || r.Total != 160) {
			t.Errorf("req row = %+v, want count 3 total 160", r)
		}
	}
	if selfOf(rows, "missing") != 0 {
		t.Error("absent layer should read 0")
	}
}

func TestTracerNilAndOpenSpans(t *testing.T) {
	var nilT *tracer
	if id := nilT.begin("x", 0); id != 0 {
		t.Errorf("nil tracer begin = %d", id)
	}
	nilT.end(0)
	if nilT.snapshot() != nil {
		t.Error("nil tracer recorded spans")
	}
	tr := newTracer()
	root := tr.begin("root", 0)
	tr.do("child", root, func() {})
	open := tr.begin("never-closed", root)
	_ = open
	tr.end(root)
	got := tr.snapshot()
	if len(got) != 2 {
		t.Fatalf("snapshot kept %d spans, want the 2 closed ones", len(got))
	}
	if got[1].Parent != got[0].ID || got[1].Start < got[0].Start || got[1].End > got[0].End {
		t.Errorf("child %+v not nested in root %+v", got[1], got[0])
	}
}

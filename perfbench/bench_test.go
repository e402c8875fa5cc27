package main

import (
	"testing"
	"time"
)

// TestSelfTimes checks the self-time arithmetic on a hand-built tree:
// overlapping children count once, a child reaching past its parent is
// clipped, grandchildren only reduce their own parent, and open spans are
// skipped.
func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Name: "root", Start: 0, End: 100, Parent: -1},    // 0
		{Name: "a", Start: 10, End: 40, Parent: 0},        // 1
		{Name: "b", Start: 30, End: 60, Parent: 0},        // 2: overlaps a
		{Name: "c", Start: 90, End: 120, Parent: 0},       // 3: clipped to 100
		{Name: "a1", Start: 20, End: 25, Parent: 1},       // 4
		{Name: "open", Start: 70, End: 0, Parent: 0},      // 5: never closed
		{Name: "other", Start: 200, End: 230, Parent: -1}, // 6
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5, -1, 30}
	got := SelfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	ls := Layers(spans, got)
	if l := LayerOf(ls, "root"); l.Count != 1 || l.SelfNs != 40 || l.TotalNs != 100 {
		t.Errorf("root layer %+v", l)
	}
	budget, med, band := Budget(spans, got, "root")
	if band != 1 || med != 0.1 || budget["root"] != 0.04 || budget["a"] != 0.025 || budget["a1"] != 0.005 {
		t.Errorf("budget %v median %v band %d", budget, med, band)
	}
}

// TestMergeRebasesParents checks that merged lists keep their trees.
func TestMergeRebasesParents(t *testing.T) {
	m := Merge([]Span{{Parent: -1}, {Parent: 0}}, []Span{{Parent: -1}, {Parent: 0}})
	if m[1].Parent != 0 || m[2].Parent != -1 || m[3].Parent != 2 {
		t.Fatalf("merged parents %+v", m)
	}
}

// TestWorkloadsTiny runs a short traced phase of every workload and
// requires every output check to pass with no failed operation.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("brings the program up three times")
	}
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			b, base := newBench(7)
			defer base.CloseIdleConnections()
			s, err := startStack(def.nodes)
			if err != nil {
				t.Fatal(err)
			}
			b.stack = s
			defer s.close()
			l, err := def.setup(b, s)
			if err != nil {
				t.Fatal(err)
			}
			defer l.close()
			p := b.runPhase(l, 200*time.Millisecond, true)
			if failures := l.check(); len(failures) > 0 {
				t.Fatalf("checks failed: %v", failures)
			}
			if p.ops == 0 || p.failed != 0 {
				t.Fatalf("%d ops, %d failed", p.ops, p.failed)
			}
			if len(p.samples[def.headline.key]) == 0 || len(p.spans) == 0 {
				t.Fatalf("no %s samples or no spans", def.headline.key)
			}
			for i, self := range SelfTimes(p.spans) {
				if self < -1 {
					t.Fatalf("span %d (%s) has negative self time %d", i, p.spans[i].Name, self)
				}
			}
		})
	}
}

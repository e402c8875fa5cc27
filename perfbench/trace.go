package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into the program (or, for the
// gateway hop, one call the program made through a benchmark transport).
type Span struct {
	Name   string
	Start  int64 // ns since the run's epoch
	End    int64 // 0 while open
	Parent int   // index into the same span list; -1 for a root
	Op     int64 // the operation (session, tick, iteration, join) it belongs to
}

// Tracer records spans in memory. Each load goroutine owns one, so the
// nesting stack is that goroutine's call stack; the mutex covers leaf spans
// recorded from goroutines the program starts inside a call (parallel
// chunk fetches) and from server goroutines (the gateway hop). A nil or
// disabled Tracer records nothing.
type Tracer struct {
	on    bool
	epoch time.Time

	mu    sync.Mutex
	spans []Span
	stack []int
	op    int64
}

// NewTracer returns a tracer whose clock starts at epoch.
func NewTracer(epoch time.Time, on bool) *Tracer {
	return &Tracer{on: on, epoch: epoch}
}

func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

// On reports whether spans are being recorded.
func (t *Tracer) On() bool { return t != nil && t.on }

// SetOp stamps the spans that follow with an operation id.
func (t *Tracer) SetOp(op int64) {
	if !t.On() {
		return
	}
	t.mu.Lock()
	t.op = op
	t.mu.Unlock()
}

// Begin opens a span nested under the innermost open one and makes it the
// new innermost. It returns the span's index (-1 when disabled).
func (t *Tracer) Begin(name string) int {
	if !t.On() {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	i := t.openLocked(name, t.topLocked())
	t.stack = append(t.stack, i)
	return i
}

// End closes a span opened with Begin.
func (t *Tracer) End(i int) {
	if i < 0 || !t.On() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = t.now()
	if n := len(t.stack); n > 0 && t.stack[n-1] == i {
		t.stack = t.stack[:n-1]
	}
}

// Leaf opens a span under the innermost open one without nesting later
// spans under it; close it with Close. Safe from any goroutine.
func (t *Tracer) Leaf(name string) int {
	if !t.On() {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.openLocked(name, t.topLocked())
}

// Close ends a span opened with Leaf.
func (t *Tracer) Close(i int) {
	if i < 0 || !t.On() {
		return
	}
	t.mu.Lock()
	t.spans[i].End = t.now()
	t.mu.Unlock()
}

// child records a completed span under an explicit parent of another
// tracer's list; used for spans recorded on server goroutines.
func (t *Tracer) child(name string, start, end int64, parent int, op int64) {
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Start: start, End: end, Parent: parent, Op: op})
	t.mu.Unlock()
}

func (t *Tracer) topLocked() int {
	if n := len(t.stack); n > 0 {
		return t.stack[n-1]
	}
	return -1
}

func (t *Tracer) openLocked(name string, parent int) int {
	t.spans = append(t.spans, Span{Name: name, Start: t.now(), Parent: parent, Op: t.op})
	return len(t.spans) - 1
}

// opOf returns the op id of span i (for attaching foreign children).
func (t *Tracer) opOf(i int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i < 0 || i >= len(t.spans) {
		return 0
	}
	return t.spans[i].Op
}

// Spans returns the recorded spans; call once recording has stopped.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// Merge concatenates span lists, rebasing each list's parent indices.
func Merge(lists ...[]Span) []Span {
	var out []Span
	for _, l := range lists {
		base := len(out)
		for _, s := range l {
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// SelfTimes returns each closed span's self time: its duration minus the
// part of its interval that its closed children cover (overlapping
// children count once; children reaching past the parent are clipped).
// Open spans get -1.
func SelfTimes(spans []Span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	type iv struct{ a, b int64 }
	var ivs []iv
	for i, s := range spans {
		if s.End == 0 {
			self[i] = -1
			continue
		}
		ivs = ivs[:0]
		for _, k := range kids[i] {
			c := spans[k]
			if c.End == 0 {
				continue
			}
			a, b := max(c.Start, s.Start), min(c.End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64
		curA, curB = -1, -1
		for _, v := range ivs {
			if v.a > curB {
				if curB > curA {
					covered += curB - curA
				}
				curA, curB = v.a, v.b
			} else if v.b > curB {
				curB = v.b
			}
		}
		if curB > curA {
			covered += curB - curA
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// LayerStat aggregates one span name across a run.
type LayerStat struct {
	Name    string
	Count   int
	TotalNs int64 // sum of durations
	SelfNs  int64 // sum of self times
}

// MeanUs is the mean duration in microseconds.
func (l LayerStat) MeanUs() float64 { return meanUs(l.TotalNs, l.Count) }

// SelfUs is the mean self time in microseconds.
func (l LayerStat) SelfUs() float64 { return meanUs(l.SelfNs, l.Count) }

func meanUs(ns int64, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n) / 1e3
}

// Layers aggregates closed spans by name, in descending self-time order.
func Layers(spans []Span, self []int64) []LayerStat {
	idx := map[string]int{}
	var out []LayerStat
	for i, s := range spans {
		if self[i] < 0 {
			continue
		}
		j, ok := idx[s.Name]
		if !ok {
			j = len(out)
			idx[s.Name] = j
			out = append(out, LayerStat{Name: s.Name})
		}
		out[j].Count++
		out[j].TotalNs += s.End - s.Start
		out[j].SelfNs += self[i]
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SelfNs > out[b].SelfNs })
	return out
}

// LayerOf finds a layer by name (zero value when absent).
func LayerOf(ls []LayerStat, name string) LayerStat {
	for _, l := range ls {
		if l.Name == name {
			return l
		}
	}
	return LayerStat{Name: name}
}

// Budget decomposes the spans named root into the self times of the
// layers beneath them (root included). To compare with a median rather
// than a mean, it averages only the roots whose duration lies between the
// 40th and 60th percentile. It returns the per-layer mean self time in
// microseconds, the roots' median duration in microseconds and how many
// roots the band held.
func Budget(spans []Span, self []int64, root string) (map[string]float64, float64, int) {
	kids := make([][]int, len(spans))
	var roots []int
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
		if s.Name == root && s.End != 0 {
			roots = append(roots, i)
		}
	}
	if len(roots) == 0 {
		return map[string]float64{}, 0, 0
	}
	sort.Slice(roots, func(a, b int) bool {
		return spans[roots[a]].End-spans[roots[a]].Start < spans[roots[b]].End-spans[roots[b]].Start
	})
	med := float64(spans[roots[len(roots)/2]].End-spans[roots[len(roots)/2]].Start) / 1e3
	lo, hi := len(roots)*2/5, (len(roots)*3+4)/5
	if hi <= lo {
		hi = lo + 1
	}
	band := roots[lo:hi]
	sum := map[string]int64{}
	var walk func(i int)
	walk = func(i int) {
		if self[i] > 0 {
			sum[spans[i].Name] += self[i]
		}
		for _, k := range kids[i] {
			walk(k)
		}
	}
	for _, r := range band {
		walk(r)
	}
	out := map[string]float64{}
	for name, ns := range sum {
		out[name] = float64(ns) / float64(len(band)) / 1e3
	}
	return out, med, len(band)
}

// WriteSpans writes spans as tab-separated lines (name, start ns, end ns,
// parent index, op id) under a header naming the run.
func WriteSpans(path, header string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "# %s\n# name\tstart_ns\tend_ns\tparent\top\n", header)
	for _, s := range spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", s.Name, s.Start, s.End, s.Parent, s.Op)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

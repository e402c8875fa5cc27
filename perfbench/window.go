package main

import (
	"bytes"
	"os"
	"sort"
	"strconv"
	"time"
)

// windows splits a measured phase into equal stretches. On a shared host
// the hypervisor takes CPU away from the machine in bursts of a few
// seconds (steal time); the end-to-end metrics are computed over the half
// of the windows with the least steal, so a burst that covers less than
// half a run does not move them. Where the host reports no steal, the
// first half of the windows is used.
const windows = 10

// sample is one measurement and when it completed, in ns since the phase
// began (the phase's tracer clock).
type sample struct {
	at int64
	d  time.Duration
}

// stealTicks reads the machine's cumulative steal time from /proc/stat
// (0 where it is unavailable).
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(string(f[8]), 10, 64)
	return v
}

// stealMeter records the steal in each window of a phase.
type stealMeter struct {
	steal []int64
	stop  chan struct{}
	done  chan struct{}
}

// meterSteal starts sampling steal at the window boundaries of a phase of
// length d that began at epoch. The last window lasts until stop.
func meterSteal(epoch time.Time, d time.Duration) *stealMeter {
	m := &stealMeter{steal: make([]int64, windows), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		prev := stealTicks()
		for i := 0; i < windows; i++ {
			if i < windows-1 {
				t := time.NewTimer(time.Until(epoch.Add(d * time.Duration(i+1) / windows)))
				select {
				case <-t.C:
				case <-m.stop:
					t.Stop()
				}
			} else {
				<-m.stop
			}
			cur := stealTicks()
			m.steal[i], prev = cur-prev, cur
		}
	}()
	return m
}

// finish stops the meter and returns which windows are calm: the half
// with the least steal (ties keep time order).
func (m *stealMeter) finish() (steal []int64, calm []bool) {
	close(m.stop)
	<-m.done
	order := make([]int, windows)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return m.steal[order[a]] < m.steal[order[b]] })
	calm = make([]bool, windows)
	for _, i := range order[:windows/2] {
		calm[i] = true
	}
	return m.steal, calm
}

// windowOf maps a completion time to its window; work finishing after the
// deadline belongs to the last one.
func windowOf(at int64, d time.Duration) int {
	w := int(at / int64(d/windows))
	return min(max(w, 0), windows-1)
}

// calmDurations returns the durations of the samples that completed in a
// calm window.
func (p *phase) calmDurations(ss []sample) []time.Duration {
	out := make([]time.Duration, 0, len(ss))
	for _, s := range ss {
		if p.calm == nil || p.calm[windowOf(s.at, p.length)] {
			out = append(out, s.d)
		}
	}
	return out
}

// Command perfbench is the repository's benchmark. It brings the program
// up in-process the way vgbl-server does (flag defaults, loopback HTTP),
// drives one closed-loop workload from at most nproc load goroutines,
// checks every output after the timed phase and prints its metrics: a
// human-readable report, then one JSON line.
//
//	go build -o perfbench . && ./perfbench --workload remote-play --seed 1 --seconds 25 --trace 0
//
// Workloads: remote-play (hosted play through a 3-node cluster gateway),
// classroom (one room, 256 watchers) and course-sync (author republish,
// returning and cold learners). With --trace 0 the JSON carries the
// end-to-end metrics; with --trace 1 the run is split into an untraced
// and a traced half and the JSON carries the per-layer metrics. See
// NOTES.md for what each metric means on each workload.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/blobstore"
	"repro/internal/faultnet"
	"repro/internal/playsvc"
)

// setupRepeats is how many times a run brings the program up; setup_s is
// the median, and the last instance is the one measured.
const setupRepeats = 5

// minBeyond is how many samples a reported tail percentile needs beyond it.
const minBeyond = 10

// spanDir receives the traced run's spans, inside the checkout.
const spanDir = ".bench_build"

// phase is one timed stretch of a workload's closed loop.
type phase struct {
	epoch    time.Time
	length   time.Duration
	deadline time.Time
	workers  []*worker

	// Filled by the workload.
	samples map[string][]sample // latency samples by key
	ops     int                 // operations attempted
	failed  int                 // operations whose call or check failed
	units   float64             // work completed (sessions, frames, iterations)
	cycles  []sample            // one closed-loop cycle per op
	streams int                 // closed loops running side by side
	steps   int                 // policy steps (remote-play sessions)
	values  map[string]float64  // workload-computed per-layer values
	paused  time.Duration       // time spent on inline output checks

	// Filled by the harness.
	elapsed  time.Duration
	cpu      time.Duration
	heap     uint64 // live heap after GC at the end of the phase
	gcCycles uint32
	gcPause  time.Duration
	mallocs  uint64
	steal    []int64 // steal ticks per window
	calm     []bool  // windows the end-to-end metrics are computed over
	spans    []Span
	before   counters
	after    counters
}

func (p *phase) add(key string, d time.Duration) {
	p.samples[key] = append(p.samples[key], sample{int64(time.Since(p.epoch)), d})
}

// calmSamples returns a sample set's durations from the calm windows.
func (p *phase) calmSamples(key string) []time.Duration { return p.calmDurations(p.samples[key]) }

// rate is the phase's throughput: the closed loops' work per second,
// taken from the median cycle so that a burst of CPU steal on a shared
// host moves it no more than it moves a median latency.
func (p *phase) rate() float64 {
	c := quantile(p.calmDurations(p.cycles), 0.5)
	if c <= 0 || p.ops == 0 {
		return 0
	}
	return float64(p.streams) * p.units / float64(p.ops) / c.Seconds()
}

// counters are the program's own exported counters, read around a phase.
type counters struct {
	play  playsvc.Stats
	store blobstore.Stats
	hists map[string]histSum
}

type histSum struct{ sum, count int64 }

// loop is a set-up workload ready to be driven.
type loop interface {
	run(p *phase)
	check() []string // output checks over everything run recorded
	close()
}

// slot maps one generic end-to-end metric to what it measures on a workload.
type slot struct {
	key  string // sample key (latency slots) or throughput label
	name string // the metric's name on this workload
	unit string // "us" or "ms" for the named human-readable line
}

// workload describes one benchmark workload.
type workload struct {
	name  string
	why   string
	nodes int // play nodes behind a gateway; 0 = single manager
	setup func(b *bench, s *stack) (loop, error)

	headline, second, third slot // latency slots
	// tail is the headline percentile reported beside the median: the
	// highest that leaves at least ten samples beyond it in a run.
	tail       float64
	throughput slot // units per second
	opName     string
	budgetRoot string // span name whose subtree is the blocking path
}

var workloads = []*workload{remotePlayWorkload, classroomWorkload, courseSyncWorkload}

// bench carries what every workload shares: the load goroutines' workers.
type bench struct {
	seed     int64
	nproc    int
	workers  []*worker
	inflight *peak
	stack    *stack
}

func main() {
	name := flag.String("workload", "", "workload: remote-play, classroom, course-sync, or all (each in turn)")
	seed := flag.Int64("seed", 1, "workload seed (learner seeds and author edits derive from it)")
	seconds := flag.Int("seconds", 25, "measured seconds")
	trace := flag.Int("trace", 0, "1 = split the run into an untraced and a traced half and report per-layer metrics")
	flag.Parse()
	var defs []*workload
	for _, w := range workloads {
		if w.name == *name || *name == "all" {
			defs = append(defs, w)
		}
	}
	if len(defs) == 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload remote-play|classroom|course-sync|all --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	failed := false
	for _, def := range defs {
		if err := run(def, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", def.name+":", err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// newBench builds the load goroutines' workers. Their connections come
// from one pool capped at nproc per host, so the benchmark never holds
// more sockets than it has load goroutines.
func newBench(seed int64) (*bench, *http.Transport) {
	b := &bench{seed: seed, nproc: goruntime.NumCPU(), inflight: &peak{}}
	base := faultnet.NewHTTPTransport(b.nproc)
	for i := 0; i < b.nproc; i++ {
		b.workers = append(b.workers, newWorker(i, base, b.inflight))
	}
	return b, base
}

func run(def *workload, seed int64, dur time.Duration, traced bool) error {
	b, base := newBench(seed)
	defer base.CloseIdleConnections()
	fmt.Printf("perfbench %s seed=%d seconds=%v trace=%v: %s\n", def.name, seed, dur.Seconds(), traced, def.why)
	fmt.Println(fingerprint(b.nproc))

	var inst loop
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		began := time.Now()
		s, err := startStack(def.nodes)
		if err != nil {
			return fmt.Errorf("start: %w", err)
		}
		b.stack = s
		l, err := def.setup(b, s)
		if err != nil {
			s.close()
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(began).Seconds())
		if i < setupRepeats-1 {
			l.close()
			s.close()
			continue
		}
		inst = l
	}
	defer b.stack.close()
	defer inst.close()

	// Warm-up: let caches fill and lazy set-up finish before timing.
	b.runPhase(inst, min(dur/10, 2*time.Second), false)
	var phases []*phase
	if traced {
		phases = append(phases, b.runPhase(inst, dur/2, false), b.runPhase(inst, dur-dur/2, true))
	} else {
		phases = append(phases, b.runPhase(inst, dur, false))
	}
	failures := inst.check()
	attempted, failed := 0, len(failures)
	for _, p := range phases {
		attempted += p.ops
		failed += p.failed
	}
	for i, f := range failures {
		if i == 8 {
			fmt.Printf("check: ... %d more\n", len(failures)-8)
			break
		}
		fmt.Println("check FAILED:", f)
	}
	ok := failed == 0 && attempted > 0
	verdict := "all passed"
	if !ok {
		verdict = "FAILED"
	}
	fmt.Printf("checks: %s (%d attempted, %d failed)\n", verdict, attempted, failed)

	var metrics map[string]metric
	if traced {
		metrics = b.report(def, phases[0], phases[1], attempted, failed, seed)
	} else {
		metrics = e2e(def, phases[0], median(setups))
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{ok, max(attempted, 1), failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !ok {
		return errCheck
	}
	return nil
}

var errCheck = errors.New("output check failed")

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runPhase drives the loop for d and measures it.
func (b *bench) runPhase(inst loop, d time.Duration, traced bool) *phase {
	goruntime.GC()
	var ms0, ms1 goruntime.MemStats
	goruntime.ReadMemStats(&ms0)
	before := b.counters()
	ru0 := rusage()
	epoch := time.Now()
	p := &phase{epoch: epoch, length: d, deadline: epoch.Add(d), workers: b.workers,
		samples: map[string][]sample{}, values: map[string]float64{}}
	steal := meterSteal(epoch, d)
	tracers := make([]*Tracer, len(b.workers))
	for i, w := range b.workers {
		w.tr = NewTracer(epoch, traced)
		w.resetStats()
		tracers[i] = w.tr
	}
	b.inflight.max.Store(0)
	if hop := b.stack.hop; hop != nil {
		hop.inflight.max.Store(0)
		if traced {
			hop.tracers.Store(&tracers)
		}
	}
	inst.run(p)
	p.steal, p.calm = steal.finish()
	p.elapsed = time.Since(epoch) - p.paused
	p.cpu = rusage() - ru0
	if hop := b.stack.hop; hop != nil {
		hop.tracers.Store(nil)
	}
	goruntime.ReadMemStats(&ms1)
	p.gcCycles = ms1.NumGC - ms0.NumGC
	p.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	goruntime.GC()
	goruntime.ReadMemStats(&ms1)
	p.heap = ms1.HeapAlloc
	p.before, p.after = before, b.counters()
	if traced {
		lists := make([][]Span, len(tracers))
		for i, t := range tracers {
			lists[i] = t.Spans()
		}
		p.spans = Merge(lists...)
	}
	return p
}

// counters reads the program's exported counters.
func (b *bench) counters() counters {
	s := b.stack
	c := counters{play: s.playStats(), store: s.store.Stats(), hists: map[string]histSum{}}
	names := []string{"vgbl_playsvc_act_seconds", "vgbl_playsvc_frame_seconds", "vgbl_playsvc_fanout_seconds"}
	if hs, err := s.scrape(names...); err == nil {
		for n, h := range hs {
			c.hists[n] = histSum{h.Sum, h.Count}
		}
	}
	return c
}

// e2e computes the end-to-end metrics of an untraced phase and prints
// them under their workload-specific names.
func e2e(def *workload, p *phase, setup float64) map[string]metric {
	secs := p.elapsed.Seconds()
	h := p.calmSamples(def.headline.key)
	m := map[string]metric{
		"headline_p50_ms": {ms(quantile(h, 0.50)), "ms"},
		"second_p50_ms":   {ms(quantile(p.calmSamples(def.second.key), 0.50)), "ms"},
		"third_p50_ms":    {ms(quantile(p.calmSamples(def.third.key), 0.50)), "ms"},
		"setup_s":         {setup, "s"},
		"live_heap_mb":    {float64(p.heap) / (1 << 20), "MB"},
		"cpu_ms_per_op":   {ms(p.cpu) / float64(max(p.ops, 1)), "ms"},
	}
	fmt.Printf("end-to-end (%s, %.2fs measured, %d %ss):\n", def.name, secs, p.ops, def.opName)
	fmt.Printf("  steal ticks per %v window: %v; metrics use the %d calmest: %v\n",
		p.length/windows, p.steal, windows/2, p.calm)
	named := func(s slot, q float64, n int) {
		v := quantile(p.calmSamples(s.key), q)
		pct := fmt.Sprintf("p%d", int(math.Round(q*100)))
		val := ms(v)
		if s.unit == "us" {
			val *= 1e3
		}
		fmt.Printf("  %-28s %12.3f %-3s (n=%d)\n", s.name+"_"+pct+"_"+s.unit, val, s.unit, n)
		if beyond := int(float64(n) * (1 - q)); q > 0.5 && beyond < minBeyond {
			fmt.Printf("  WARNING: %s has only %d samples beyond it; run longer\n", s.name+"_"+pct, beyond)
		}
	}
	named(def.headline, 0.50, len(h))
	named(def.headline, def.tail, len(h))
	named(def.second, 0.50, len(p.calmSamples(def.second.key)))
	named(def.third, 0.50, len(p.calmSamples(def.third.key)))
	if pub := p.calmSamples("publish"); len(pub) > 0 {
		named(slot{"publish", "publish", "ms"}, 0.50, len(pub))
	}
	fmt.Printf("  %-28s %12.3f 1/s (%d loops / median cycle %.3f ms; %.3f over the whole phase)\n",
		def.throughput.name, p.rate(), p.streams, ms(quantile(p.calmDurations(p.cycles), 0.5)), p.units/secs)
	fmt.Printf("  %-28s %12.3f s   (median of %d)\n", "setup_s", setup, setupRepeats)
	fmt.Printf("  %-28s %12.3f MB\n", "live_heap_mb", float64(p.heap)/(1<<20))
	fmt.Printf("  %-28s %12.6f     (%d of %d)\n", "fail_ratio", float64(p.failed)/float64(max(p.ops, 1)), p.failed, p.ops)
	fmt.Printf("  %-28s %12.3f ms  per %s\n", "cpu_ms_per_op", ms(p.cpu)/float64(max(p.ops, 1)), def.opName)
	return m
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile interpolates linearly between order statistics (0 when empty).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[hi]-s[lo]))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rusage returns the process's user plus system CPU time.
func rusage() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// fingerprint describes the machine and build a result came from.
func fingerprint(nproc int) string {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					commit += "+dirty"
				}
			}
		}
	}
	return fmt.Sprintf("fingerprint: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s",
		model, nproc, goruntime.GOMAXPROCS(0), goruntime.Version(), commit)
}

var plainHTTP = &http.Client{Timeout: 10 * time.Second}

func getJSON(url string, v any) error {
	resp, err := plainHTTP.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// writeSpans stores a traced phase's spans under spanDir.
func writeSpans(def *workload, seed int64, p *phase) (string, error) {
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(spanDir, fmt.Sprintf("spans-%s-seed%d.tsv", def.name, seed))
	err := WriteSpans(path, fmt.Sprintf("perfbench %s seed=%d %s", def.name, seed, fingerprint(goruntime.NumCPU())), p.spans)
	return path, err
}

package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/gamepack"
	"repro/internal/netstream"
	"repro/internal/playsvc"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// remote-play: thin-client learners play hosted classroom sessions back to
// back through the gateway of a 3-node cluster (the E17 shape). Each
// session revalidates the package (a 304 on a shared warm cache), dials
// with the client's default options, plays the guided policy with
// vgbl-loadtest's defaults and reports telemetry in size-only batches.
var remotePlayWorkload = &workload{
	name:       "remote-play",
	why:        "hosted play through a 3-node cluster gateway with default client options: the act and frame paths do most of the work",
	nodes:      3,
	setup:      setupRemotePlay,
	headline:   slot{"act", "act_rtt", "us"},
	second:     slot{"frame", "frame_rtt", "us"},
	third:      slot{"start", "session_start", "ms"},
	tail:       0.99,
	throughput: slot{name: "sessions_per_s"},
	opName:     "session",
	budgetRoot: "act",
}

// telemetryBatch is the size-only batch a learner reports in.
const telemetryBatch = 32

// learnerConfig is vgbl-loadtest's per-session default (30 steps, 2 ticks
// per step, patience 20, reward boost 10) with a frame every 4 steps.
func learnerConfig(seed int64) sim.Config {
	return sim.Config{MaxSteps: 30, TicksPerStep: 2, Patience: 20, RewardBoost: 10, WatchEvery: 4, Seed: seed}
}

// deriveSeed mixes the workload seed with an index (splitmix64), so every
// learner, room and edit gets its own reproducible seed.
func deriveSeed(seed int64, i int64) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

type remotePlay struct {
	b      *bench
	s      *stack
	c      *course
	pkgURL string
	proj   *core.Project
	cache  *netstream.PackageCache // shared by the learners, warm

	next    atomic.Int64
	mu      sync.Mutex
	records []sessionRecord
}

// sessionRecord is what the output check needs from one session: its
// seed and a hash of its analytics digest (kept small, so the records do
// not weigh on the measured heap).
type sessionRecord struct {
	seed   int64
	digest [32]byte
	err    error
}

// digestOf hashes a report's JSON form (map keys sort, so equal reports
// hash equally).
func digestOf(r *analytics.Report) [32]byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a report holds only strings, ints, slices and maps
	}
	return sha256.Sum256(b)
}

func setupRemotePlay(b *bench, s *stack) (loop, error) {
	rp := &remotePlay{b: b, s: s, c: s.course("classroom"), cache: netstream.NewPackageCache()}
	rp.pkgURL = s.url + "/pkg/" + rp.c.name
	// Prefetch once, as the fleet does: every session then revalidates
	// the package with a 304 instead of re-shipping it.
	nc := &netstream.Client{HTTP: b.workers[0].http}
	blob, _, err := nc.DownloadDelta(rp.pkgURL, rp.cache)
	if err != nil {
		return nil, err
	}
	pkg, err := gamepack.Open(blob)
	if err != nil {
		return nil, err
	}
	rp.proj = pkg.Project
	return rp, nil
}

// learnerResult is one load goroutine's share of a phase.
type learnerResult struct {
	acts, frames, starts []sample
	cycles               []sample
	sessions, failed     int
	steps                int
	flush                time.Duration
	batches, retries     int
	pendingMax           int
	records              []sessionRecord
}

func (rp *remotePlay) run(p *phase) {
	res := make([]learnerResult, len(p.workers))
	var wg sync.WaitGroup
	for i, w := range p.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rp.learner(w, p, &res[i])
		}()
	}
	wg.Wait()
	p.streams = len(p.workers)
	var flush time.Duration
	var batches, retries, pending int
	for _, r := range res {
		p.samples["act"] = append(p.samples["act"], r.acts...)
		p.samples["frame"] = append(p.samples["frame"], r.frames...)
		p.samples["start"] = append(p.samples["start"], r.starts...)
		p.cycles = append(p.cycles, r.cycles...)
		p.ops += r.sessions
		p.failed += r.failed
		p.units += float64(r.sessions - r.failed)
		p.steps += r.steps
		flush += r.flush
		batches += r.batches
		retries += r.retries
		pending = max(pending, r.pendingMax)
		rp.mu.Lock()
		rp.records = append(rp.records, r.records...)
		rp.mu.Unlock()
	}
	p.values["telemetry.flush_us"] = ratio(us(flush), float64(batches))
	p.values["telemetry.retries"] = float64(retries)
	p.values["telemetry.pending_max"] = float64(pending)
}

// learner plays sessions back to back until the phase deadline.
func (rp *remotePlay) learner(w *worker, p *phase, r *learnerResult) {
	nc := &netstream.Client{HTTP: w.http}
	start := rp.proj.StartScenario
	for time.Now().Before(p.deadline) {
		n := rp.next.Add(1)
		rec := sessionRecord{seed: deriveSeed(rp.b.seed, n)}
		w.tr.SetOp(n)
		root := w.tr.Begin("op")
		began := time.Now()
		sp := w.tr.Begin("revalidate")
		_, st, err := nc.DownloadDelta(rp.pkgURL, rp.cache)
		w.tr.End(sp)
		if err == nil && st.NotModified != 1 {
			err = fmt.Errorf("revalidate: want one 304, got %+v", st)
		}
		tc, terr := telemetry.NewClient(telemetry.ClientOptions{
			BaseURL:    rp.s.url,
			Course:     rp.c.name,
			Session:    fmt.Sprintf("perfbench-%d-%d", rp.b.seed, n),
			Start:      start,
			FlushEvery: telemetryBatch,
			HTTP:       w.http,
		})
		if terr != nil {
			panic(terr) // options are constant and valid
		}
		col := &analytics.Collector{}
		sp = w.tr.Begin("dial")
		pc, derr := playsvc.Dial(playsvc.ClientOptions{
			BaseURL:  rp.s.url,
			Course:   rp.c.name,
			Project:  rp.proj,
			Observer: sim.Observers(col, tc),
			HTTP:     w.http,
		})
		w.tr.End(sp)
		r.starts = append(r.starts, sample{w.tr.now(), time.Since(began)})
		if derr != nil {
			err = fmt.Errorf("dial: %w", derr)
			tc.Close()
		} else {
			g := &timedGame{c: pc, w: w, acts: &r.acts, frames: &r.frames}
			g.sample = func() { r.pendingMax = max(r.pendingMax, rp.s.svc.Pending()) }
			sp = w.tr.Begin("session")
			res, perr := sim.RunGame(g, sim.GuidedFactory, learnerConfig(rec.seed), col)
			w.tr.End(sp)
			sp = w.tr.Begin("close")
			cerr := pc.Close()
			terr := tc.Close()
			w.tr.End(sp)
			if res != nil {
				r.steps += res.Steps
			}
			for _, e := range []error{perr, cerr, terr} {
				if err == nil && e != nil {
					err = e
				}
			}
			if err == nil && g.failed > 0 {
				err = fmt.Errorf("%d calls failed: %v", g.failed, pc.Err())
			}
			ts := tc.Stats()
			if err == nil && ts.Dropped > 0 {
				err = fmt.Errorf("telemetry dropped %d events", ts.Dropped)
			}
			r.flush += ts.FlushTime
			r.batches += ts.Batches
			r.retries += ts.Retries
			// The digest after the leave, as the fleet takes it: the leave
			// reply may carry the last events.
			rec.digest = digestOf(col.Digest(start))
		}
		w.tr.End(root)
		r.cycles = append(r.cycles, sample{w.tr.now(), time.Since(began)})
		r.sessions++
		if err != nil {
			rec.err = err
			r.failed++
		}
		r.records = append(r.records, rec)
	}
}

// check replays every session locally at its seed and compares analytics
// digests, then confirms the telemetry service saw every session end.
func (rp *remotePlay) check() []string {
	var mu sync.Mutex
	var failures []string
	fail := func(format string, args ...any) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	recs := rp.records
	var wg sync.WaitGroup
	var next atomic.Int64
	for i := 0; i < rp.b.nproc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(recs) {
					return
				}
				rec := recs[j]
				if rec.err != nil {
					fail("session seed %d: %v", rec.seed, rec.err)
					continue
				}
				local, err := sim.Run(rp.c.blob, sim.GuidedFactory, learnerConfig(rec.seed))
				if err != nil {
					fail("local replay seed %d: %v", rec.seed, err)
				} else if digestOf(local.Report) != rec.digest {
					fail("session seed %d: remote analytics digest differs from local %+v", rec.seed, *local.Report)
				}
			}
		}()
	}
	wg.Wait()
	if !rp.s.svc.Quiesce(10 * time.Second) {
		failures = append(failures, "telemetry ingest did not drain")
	}
	cs := rp.s.svc.Store().Snapshot()[rp.c.name]
	if cs.SessionsStarted != len(recs) || cs.SessionsEnded != len(recs) || cs.LiveSessions != 0 {
		failures = append(failures, fmt.Sprintf("telemetry saw %d started, %d ended, %d live; %d sessions ran",
			cs.SessionsStarted, cs.SessionsEnded, cs.LiveSessions, len(recs)))
	}
	return failures
}

func (rp *remotePlay) close() {}

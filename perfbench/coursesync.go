package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/blobstore"
	"repro/internal/gamepack"
	"repro/internal/media/playback"
	"repro/internal/netstream"
	"repro/internal/runtime"
)

// course-sync: the bundled courses live in the server store. Each
// iteration the author re-shoots one seed-chosen shot of the next course
// in turn and republishes it, then returning learners (warm caches)
// resync and open the new revision, and cold joiners open it from
// nothing, decode its first frame and fetch every segment.
var courseSyncWorkload = &workload{
	name:       "course-sync",
	why:        "author re-shoot and republish beside returning and cold learners: delivery, codec and chunk-store writes do most of the work",
	setup:      setupCourseSync,
	headline:   slot{"first_frame", "first_frame", "ms"},
	second:     slot{"resync", "resync", "ms"},
	third:      slot{"join", "cold_join", "ms"},
	tail:       0.90,
	throughput: slot{name: "iterations_per_s"},
	opName:     "iteration",
	budgetRoot: "first_frame",
}

const (
	returningLearners = 8
	coldJoiners       = 16
	// takesPerShot bounds the footage an author can shoot for one shot, so
	// the store and the learners' caches stop growing once every take has
	// been published, whatever the run length.
	takesPerShot = 4
)

type courseSync struct {
	b     *bench
	s     *stack
	iter  int64
	shots []*shotTakes // per course, in stack order
	// caches are the returning learners' package caches, warm from setup.
	caches []*netstream.PackageCache

	failures []string
}

// shotTakes is one course's edit state and its revision's reference frames.
type shotTakes struct {
	base       []uint64 // each shot's original noise seed
	take       []int    // each shot's current take
	startFrame int      // first frame of the start scenario's segment
	raw        []byte   // decoded start frame of the current revision
	presented  []byte   // runtime presentation frame of the current revision
}

func setupCourseSync(b *bench, s *stack) (loop, error) {
	cs := &courseSync{b: b, s: s}
	for _, c := range s.courses {
		st := &shotTakes{}
		for _, sh := range c.c.Film.Shots {
			st.base = append(st.base, sh.Seed)
			st.take = append(st.take, 0)
		}
		start := c.c.Project.ScenarioByID(c.c.Project.StartScenario)
		for _, ch := range c.c.Chapters {
			if start != nil && ch.Name == start.Segment {
				st.startFrame = ch.Start
			}
		}
		if err := st.reference(c); err != nil {
			return nil, err
		}
		cs.shots = append(cs.shots, st)
	}
	nc := &netstream.Client{HTTP: b.workers[0].http}
	for i := 0; i < returningLearners; i++ {
		cache := netstream.NewPackageCache()
		for _, c := range s.courses {
			if _, _, err := nc.DownloadDelta(s.url+"/pkg/"+c.name, cache); err != nil {
				return nil, err
			}
		}
		cs.caches = append(cs.caches, cache)
	}
	return cs, nil
}

// reference decodes the revision's start frame and renders its first
// presentation frame, for the learners' outputs to be compared against.
func (st *shotTakes) reference(c *course) error {
	pkg, err := gamepack.Open(c.blob)
	if err != nil {
		return err
	}
	v, err := playback.OpenVideo(pkg.Video, 1)
	if err != nil {
		return err
	}
	f, err := v.FrameAt(st.startFrame)
	if err == nil {
		st.raw = append(st.raw[:0], f.Pix...)
	}
	v.Close()
	if err != nil {
		return err
	}
	sess, err := runtime.NewSessionFromPackage(pkg, runtime.Options{})
	if err != nil {
		return err
	}
	defer sess.Close()
	pf, err := sess.Frame()
	if err != nil {
		return err
	}
	st.presented = append(st.presented[:0], pf.Pix...)
	return nil
}

// syncStats is what the learner jobs of one phase transferred.
type syncStats struct {
	resyncBytes, pkgBytes int64
	fetched, hits         int64
	coldChunks, colds     int64
}

// round is what one iteration's learner jobs share: the revision they
// sync to, the one before it, and the phase they report into (mu guards
// the phase and the stats across the load goroutines).
type round struct {
	url  string
	c    *course
	st   *shotTakes
	prev map[blobstore.Hash]bool
	p    *phase
	ss   *syncStats
	mu   sync.Mutex
}

func (cs *courseSync) run(p *phase) {
	var ss syncStats
	var puts int
	p.streams = 1
	for time.Now().Before(p.deadline) {
		began, paused := time.Now(), p.paused
		n, ok := cs.iterate(p, &ss)
		p.cycles = append(p.cycles, sample{int64(time.Since(p.epoch)), time.Since(began) - (p.paused - paused)})
		puts += n
		p.ops++
		p.units++
		if !ok {
			p.failed++
		}
	}
	p.values["blobstore.puts"] = float64(puts)
	p.values["netstream.delta_bytes_ratio"] = ratio(float64(ss.resyncBytes), float64(ss.pkgBytes))
	p.values["netstream.chunk_hit_ratio"] = ratio(float64(ss.hits), float64(ss.hits+ss.fetched))
	p.values["netstream.chunks_per_join"] = ratio(float64(ss.coldChunks), float64(ss.colds))
}

// iterate runs one edit-publish-sync round and reports how many chunk
// puts the publish made and whether every output checked out.
func (cs *courseSync) iterate(p *phase, ss *syncStats) (int, bool) {
	cs.iter++
	idx := int((cs.iter - 1) % int64(len(cs.s.courses)))
	c, st := cs.s.courses[idx], cs.shots[idx]
	rng := rand.New(rand.NewSource(deriveSeed(cs.b.seed, cs.iter)))
	k := rng.Intn(len(st.take))
	st.take[k] = (st.take[k] + 1 + rng.Intn(takesPerShot-1)) % takesPerShot
	c.c.Film.Shots[k].Seed = st.base[k] ^ uint64(st.take[k])*0x9e3779b97f4a7c15
	failures := len(cs.failures)
	fail := func(format string, args ...any) {
		cs.failures = append(cs.failures, fmt.Sprintf("iteration %d (%s): ", cs.iter, c.name)+fmt.Sprintf(format, args...))
	}

	w := p.workers[0]
	for _, wk := range p.workers {
		wk.tr.SetOp(cs.iter)
	}
	began := time.Now()
	root := w.tr.Begin("publish")
	sp := w.tr.Begin("studio.record")
	video, err := c.c.RecordVideo(studioOpts)
	w.tr.End(sp)
	var blob []byte
	var man *gamepack.Manifest
	if err == nil {
		sp = w.tr.Begin("gamepack.build")
		blob, err = gamepack.Build(c.c.Project, video)
		w.tr.End(sp)
	}
	if err == nil {
		sp = w.tr.Begin("blobstore.deposit")
		man, err = gamepack.DepositChunks(blob, cs.s.store)
		w.tr.End(sp)
	}
	if err == nil {
		sp = w.tr.Begin("netstream.add_manifest")
		err = cs.s.srv.AddManifest(c.name, man)
		w.tr.End(sp)
	}
	w.tr.End(root)
	if err != nil {
		fail("publish: %v", err)
		return 0, false
	}
	p.add("publish", time.Since(began))
	puts := 0
	for _, sec := range man.Sections {
		puts += len(sec.Chunks)
	}
	paused := time.Now()
	prev := c.chunks
	c.setRevision(blob, man)
	if err := st.reference(c); err != nil {
		fail("reference frame: %v", err)
		return puts, false
	}
	p.paused += time.Since(paused)

	rd := &round{url: cs.s.url + "/pkg/" + c.name, c: c, st: st, prev: prev, p: p, ss: ss}
	jobs := returningLearners + coldJoiners
	var wg sync.WaitGroup
	for wi, wk := range p.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nc := &netstream.Client{HTTP: wk.http}
			for j := wi; j < jobs; j += len(p.workers) {
				var msgs []string
				if j < returningLearners {
					msgs = rd.resync(wk, nc, cs.caches[j])
				} else {
					msgs = rd.join(wk, nc)
				}
				if len(msgs) > 0 {
					rd.mu.Lock()
					for _, m := range msgs {
						fail("learner %d: %s", j, m)
					}
					rd.mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return puts, len(cs.failures) == failures
}

// resync is a returning learner: delta-sync to the new revision, open it
// and render its first frame. Only chunks the previous revision lacked may
// cross the wire.
func (rd *round) resync(w *worker, nc *netstream.Client, cache *netstream.PackageCache) []string {
	w.startChunkLog()
	began := time.Now()
	root := w.tr.Begin("resync")
	sp := w.tr.Begin("netstream.delta")
	blob, xs, err := nc.DownloadDelta(rd.url, cache)
	w.tr.End(sp)
	var pkg *gamepack.Package
	if err == nil {
		sp = w.tr.Begin("gamepack.open")
		pkg, err = gamepack.Open(blob)
		w.tr.End(sp)
	}
	var frame []byte
	if err == nil {
		sp = w.tr.Begin("runtime.first_frame")
		var sess *runtime.Session
		sess, err = runtime.NewSessionFromPackage(pkg, runtime.Options{})
		if err == nil {
			f, ferr := sess.Frame()
			if ferr == nil {
				frame = f.Pix
			}
			err = ferr
			sess.Close()
		}
		w.tr.End(sp)
	}
	w.tr.End(root)
	d := time.Since(began)
	fetched := w.stopChunkLog()
	if err != nil {
		return []string{fmt.Sprintf("resync: %v", err)}
	}
	rd.mu.Lock()
	rd.p.add("resync", d)
	rd.ss.resyncBytes += int64(xs.BytesFetched)
	rd.ss.pkgBytes += int64(len(blob))
	rd.ss.fetched += int64(xs.ChunksFetched)
	rd.ss.hits += int64(xs.ChunkHits)
	rd.mu.Unlock()
	var msgs []string
	if !bytes.Equal(blob, rd.c.blob) {
		msgs = append(msgs, "assembled package differs from the published revision")
	}
	if !bytes.Equal(frame, rd.st.presented) {
		msgs = append(msgs, "first frame differs from the published revision's")
	}
	for _, hex := range fetched {
		h, err := blobstore.ParseHash(hex)
		if err != nil || rd.prev[h] || !rd.c.chunks[h] {
			msgs = append(msgs, fmt.Sprintf("fetched chunk %.12s that the previous revision already had or the new one lacks", hex))
			break
		}
	}
	return msgs
}

// join is a cold learner: open the course from an empty cache, decode the
// start frame, then fetch every remaining segment.
func (rd *round) join(w *worker, nc *netstream.Client) []string {
	cache := netstream.NewPackageCache()
	began := time.Now()
	root := w.tr.Begin("join")
	ff := w.tr.Begin("first_frame")
	sp := w.tr.Begin("netstream.open")
	g, xs, err := nc.ProgressiveOpenCached(rd.url, cache)
	w.tr.End(sp)
	var frame []byte
	if err == nil {
		sp = w.tr.Begin("vcodec.first_frame")
		f, ferr := g.FrameAt(rd.st.startFrame)
		w.tr.End(sp)
		if ferr == nil {
			frame = f.Pix
		}
		err = ferr
	}
	w.tr.End(ff)
	d := time.Since(began)
	if err != nil {
		w.tr.End(root)
		return []string{fmt.Sprintf("cold open: %v", err)}
	}
	sp = w.tr.Begin("netstream.segments")
	var msgs []string
	for _, ch := range g.Chapters() {
		seg, err := g.FetchSegment(ch.Name)
		if err != nil {
			msgs = append(msgs, fmt.Sprintf("segment %s: %v", ch.Name, err))
			break
		}
		xs.Add(seg)
	}
	w.tr.End(sp)
	w.tr.End(root)
	full := time.Since(began)
	rd.mu.Lock()
	rd.p.add("first_frame", d)
	rd.p.add("join", full)
	rd.ss.fetched += int64(xs.ChunksFetched)
	rd.ss.hits += int64(xs.ChunkHits)
	rd.ss.coldChunks += int64(xs.ChunksFetched)
	rd.ss.colds++
	rd.mu.Unlock()
	if !bytes.Equal(frame, rd.st.raw) {
		msgs = append(msgs, "decoded first frame differs from the published revision's")
	}
	for _, ch := range g.Chapters() {
		if !g.HasSegment(ch.Name) {
			msgs = append(msgs, fmt.Sprintf("segment %s missing after fetch", ch.Name))
		}
	}
	return msgs
}

func (cs *courseSync) check() []string { return cs.failures }

func (cs *courseSync) close() {}

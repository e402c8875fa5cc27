package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/gamepack"
	"repro/internal/media/raster"
	"repro/internal/netstream"
	"repro/internal/playsvc"
	"repro/internal/sim"
)

// classroom: one room on the single-node vgbl-server shape. A driver plays
// the guided policy; after every act one goroutine polls each of the
// room's watchers once over one connection, and watchers vote on every
// quiz the driver opens. The room is recreated when the game ends.
var classroomWorkload = &workload{
	name:       "classroom",
	why:        "one room, 256 watchers polled after every driver act: the room fan-out does most of the work, act traffic is light",
	setup:      setupClassroom,
	headline:   slot{"tick", "tick_to_all", "ms"},
	second:     slot{"driver_act", "driver_act_rtt", "us"},
	third:      slot{"answer", "answer_rtt", "us"},
	tail:       0.95,
	throughput: slot{name: "watcher_frames_per_s"},
	opName:     "tick",
	budgetRoot: "tick",
}

// driverConfig is the learner profile without frame fetches: watchers
// receive every frame through the room.
func driverConfig(seed int64) sim.Config {
	c := learnerConfig(seed)
	c.WatchEvery = 0
	return c
}

const (
	roomWatchers    = 256
	answerCorrectly = 0.7 // share of watcher votes that pick the right choice
)

type classroom struct {
	b     *bench
	s     *stack
	proj  *core.Project
	rooms int64
	room  *liveRoom

	failures []string
}

// liveRoom is the room being played and what the checks compare.
type liveRoom struct {
	id       string
	seed     int64
	driver   *playsvc.Client
	col      *analytics.Collector
	watchers []*playsvc.RoomClient
	last     []*raster.Frame // each watcher's newest frame
	quiz     []string        // pending quiz in each watcher's newest update
	answered []map[string]bool
	rng      *rand.Rand

	seq  int64 // newest publication sequence
	pubs int64 // publications the driver caused, create included
	sent int64 // votes the server accepted
}

func setupClassroom(b *bench, s *stack) (loop, error) {
	blob, _, err := (&netstream.Client{HTTP: b.workers[0].http}).DownloadDelta(s.url+"/pkg/classroom", netstream.NewPackageCache())
	if err != nil {
		return nil, err
	}
	pkg, err := gamepack.Open(blob)
	if err != nil {
		return nil, err
	}
	cr := &classroom{b: b, s: s, proj: pkg.Project}
	if err := cr.open(b.workers[0]); err != nil {
		return nil, err
	}
	return cr, nil
}

// open creates the next room, seats the driver and joins every watcher,
// then drains the create-time frame each joiner's ring is seeded with.
func (cr *classroom) open(w *worker) error {
	cr.rooms++
	r := &liveRoom{id: fmt.Sprintf("perfbench-%d-room-%d", cr.b.seed, cr.rooms), seed: deriveSeed(cr.b.seed, cr.rooms)}
	r.rng = rand.New(rand.NewSource(r.seed))
	if _, err := playsvc.CreateRoom(cr.s.url, &playsvc.RoomCreateRequest{Course: "classroom", Room: r.id}, w.http); err != nil {
		return fmt.Errorf("create room: %w", err)
	}
	r.col = &analytics.Collector{}
	var err error
	r.driver, err = playsvc.Dial(playsvc.ClientOptions{BaseURL: cr.s.url, Resume: r.id, Project: cr.proj, Observer: r.col, HTTP: w.http})
	if err != nil {
		return fmt.Errorf("driver dial: %w", err)
	}
	for i := 0; i < roomWatchers; i++ {
		wc, err := playsvc.JoinRoom(playsvc.RoomClientOptions{BaseURL: cr.s.url, Room: r.id, HTTP: w.http})
		if err != nil {
			r.driver.Close()
			return fmt.Errorf("join: %w", err)
		}
		r.watchers = append(r.watchers, wc)
		r.answered = append(r.answered, map[string]bool{})
	}
	r.last = make([]*raster.Frame, roomWatchers)
	r.quiz = make([]string, roomWatchers)
	r.seq, r.pubs = 1, 1
	for i, wc := range r.watchers {
		u, f, err := wc.Poll(0)
		if err != nil || u == nil || u.Seq != 1 {
			r.driver.Close()
			return fmt.Errorf("watcher %d: first poll %v, %v", i, u, err)
		}
		r.last[i] = f
	}
	cr.room = r
	return nil
}

// run plays rooms on one goroutine until the deadline: the driver and the
// poll round share it, so each act's fan-out is measured alone.
func (cr *classroom) run(p *phase) {
	w := p.workers[0]
	var frames int64
	for time.Now().Before(p.deadline) {
		if cr.room == nil {
			if err := cr.open(w); err != nil {
				cr.failures = append(cr.failures, err.Error())
				p.failed++
				return
			}
			p.values["room.publications"]++
		}
		r := cr.room
		g := &timedGame{c: r.driver, w: w, acts: new([]sample), frames: new([]sample)}
		var issuedAt time.Time
		g.after = func(issued time.Time, err error) {
			issuedAt = issued
			p.ops++
			n, ok := cr.round(w, issued, p)
			frames += int64(n)
			if !ok {
				p.failed++
			}
		}
		g.post = func() {
			cr.vote(w, p)
			p.cycles = append(p.cycles, sample{w.tr.now(), time.Since(issuedAt)})
		}
		w.tr.SetOp(cr.rooms)
		if _, err := sim.RunGame(g, sim.GuidedFactory, driverConfig(r.seed), r.col); err != nil || g.failed > 0 {
			cr.failures = append(cr.failures, fmt.Sprintf("room %s driver: %v (%d failed calls)", r.id, err, g.failed))
			p.failed++
		}
		p.samples["driver_act"] = append(p.samples["driver_act"], *g.acts...)
		paused := time.Now()
		cr.finish()
		p.paused += time.Since(paused)
		if err := r.driver.Close(); err != nil {
			cr.failures = append(cr.failures, fmt.Sprintf("room %s leave: %v", r.id, err))
		}
		cr.room = nil
	}
	p.units = float64(frames)
	p.streams = 1
}

// round polls every watcher once after a driver act. An act publishes
// exactly one frame or none; every watcher must see the same outcome.
func (cr *classroom) round(w *worker, issued time.Time, p *phase) (delivered int, ok bool) {
	r := cr.room
	want := r.seq + 1
	var bad []string
	for i, wc := range r.watchers {
		sp := w.tr.Begin("poll")
		u, f, err := wc.Poll(0)
		w.tr.End(sp)
		switch {
		case err != nil:
			bad = append(bad, fmt.Sprintf("watcher %d: %v", i, err))
		case u == nil:
		case u.Seq != want:
			bad = append(bad, fmt.Sprintf("watcher %d got seq %d, want %d", i, u.Seq, want))
		default:
			delivered++
			r.last[i] = f
			r.quiz[i] = u.Quiz
		}
	}
	toAll := time.Since(issued)
	if delivered != 0 && delivered != len(r.watchers) {
		bad = append(bad, fmt.Sprintf("%d of %d watchers received seq %d", delivered, len(r.watchers), want))
	}
	if len(bad) > 0 {
		cr.failures = append(cr.failures, fmt.Sprintf("room %s tick: %s", r.id, bad[0]))
		return delivered, false
	}
	if delivered > 0 {
		r.seq, r.pubs = want, r.pubs+1
		p.add("tick", toAll)
		p.values["room.publications"]++
	}
	return delivered, true
}

// vote has every watcher answer the quiz its newest frame showed, once.
func (cr *classroom) vote(w *worker, p *phase) {
	r := cr.room
	for i, q := range r.quiz {
		if q == "" || r.answered[i][q] {
			continue
		}
		quiz := cr.proj.QuizByID(q)
		if quiz == nil || len(quiz.Choices) == 0 {
			cr.failures = append(cr.failures, fmt.Sprintf("room %s: unknown quiz %q", r.id, q))
			continue
		}
		choice := quiz.Answer
		if r.rng.Float64() >= answerCorrectly && len(quiz.Choices) > 1 {
			choice = (quiz.Answer + 1 + r.rng.Intn(len(quiz.Choices)-1)) % len(quiz.Choices)
		}
		began := time.Now()
		sp := w.tr.Begin("answer")
		_, err := r.watchers[i].Answer(q, choice)
		w.tr.End(sp)
		p.add("answer", time.Since(began))
		if err != nil {
			cr.failures = append(cr.failures, fmt.Sprintf("room %s watcher %d answer: %v", r.id, i, err))
			continue
		}
		r.answered[i][q] = true
		r.sent++
	}
}

// finish checks the room before it closes: one render per publication,
// nothing skipped, every vote recorded, every watcher on the driver's frame.
func (cr *classroom) finish() {
	r := cr.room
	fail := func(format string, args ...any) {
		cr.failures = append(cr.failures, fmt.Sprintf("room %s: ", r.id)+fmt.Sprintf(format, args...))
	}
	st, err := r.watchers[0].RoomStats()
	if err != nil {
		fail("stats: %v", err)
		return
	}
	if st.Renders != r.pubs || st.Seq != r.seq {
		fail("%d renders at seq %d for %d publications up to seq %d", st.Renders, st.Seq, r.pubs, r.seq)
	}
	if st.Skipped != 0 {
		fail("%d frames skipped", st.Skipped)
	}
	if st.Answers != r.sent {
		fail("%d answers recorded, %d sent", st.Answers, r.sent)
	}
	f, err := r.driver.Frame()
	if err != nil {
		fail("driver frame: %v", err)
		return
	}
	for i, wc := range r.watchers {
		if wc.Skipped() != 0 || wc.Seq() != r.seq {
			fail("watcher %d at seq %d with %d skipped, room at %d", i, wc.Seq(), wc.Skipped(), r.seq)
		} else if !bytes.Equal(r.last[i].Pix, f.Pix) {
			fail("watcher %d frame differs from the driver's", i)
		}
	}
}

func (cr *classroom) check() []string { return cr.failures }

func (cr *classroom) close() {
	if cr.room != nil {
		cr.room.driver.Close()
		cr.room = nil
	}
}

package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/playsvc"
	"repro/internal/sim"
)

// timedGame is the sim.Game a policy drives: it forwards every call to a
// playsvc.Client and times the calls that cross the wire. Acts (every
// state-changing call) and frame fetches each get a sample and, when
// tracing, a span; reads are answered from the client's mirror and pass
// straight through.
type timedGame struct {
	c *playsvc.Client
	w *worker

	acts   *[]sample // act round trips
	frames *[]sample // frame round trips
	failed int       // calls that left the client with a sticky error

	// after, when set, runs once each act returns, inside a "tick" span
	// that starts when the act is issued (the classroom fan-out round);
	// post runs once that span has ended.
	after func(issued time.Time, err error)
	post  func()
	// sample, when set, runs after each act while tracing (counter sampling).
	sample func()
}

var _ sim.Game = (*timedGame)(nil)

func (g *timedGame) act(call func() error) {
	tick := -1
	if g.after != nil {
		tick = g.w.tr.Begin("tick")
	}
	issued := time.Now()
	sp := g.w.tr.Begin("act")
	err := call()
	g.w.tr.End(sp)
	*g.acts = append(*g.acts, sample{g.w.tr.now(), time.Since(issued)})
	if g.c.Err() != nil {
		g.failed++
		if err == nil {
			err = g.c.Err()
		}
	}
	if g.sample != nil && g.w.tr.On() {
		g.sample()
	}
	if g.after != nil {
		g.after(issued, err)
		g.w.tr.End(tick)
	}
	if g.post != nil {
		g.post()
	}
}

func (g *timedGame) Project() *core.Project          { return g.c.Project() }
func (g *timedGame) Scenario() *core.Scenario        { return g.c.Scenario() }
func (g *timedGame) State() *core.State              { return g.c.State() }
func (g *timedGame) Ended() bool                     { return g.c.Ended() }
func (g *timedGame) Messages() []string              { return g.c.Messages() }
func (g *timedGame) PendingQuiz() (*core.Quiz, bool) { return g.c.PendingQuiz() }

func (g *timedGame) AnswerQuiz(quizID string, choice int) (correct bool, err error) {
	g.act(func() error {
		correct, err = g.c.AnswerQuiz(quizID, choice)
		return err
	})
	return correct, err
}

func (g *timedGame) Click(vx, vy int) {
	g.act(func() error { g.c.Click(vx, vy); return nil })
}

func (g *timedGame) Examine(objectID string) {
	g.act(func() error { g.c.Examine(objectID); return nil })
}

func (g *timedGame) Talk(objectID string) {
	g.act(func() error { g.c.Talk(objectID); return nil })
}

func (g *timedGame) Take(objectID string) (took bool) {
	g.act(func() error { took = g.c.Take(objectID); return nil })
	return took
}

func (g *timedGame) UseItemOn(item, objectID string) {
	g.act(func() error { g.c.UseItemOn(item, objectID); return nil })
}

func (g *timedGame) SelectItem(item string) (err error) {
	g.act(func() error { err = g.c.SelectItem(item); return err })
	return err
}

func (g *timedGame) ClearSelection() {
	g.act(func() error { g.c.ClearSelection(); return nil })
}

func (g *timedGame) GotoScenario(id string) (err error) {
	g.act(func() error { err = g.c.GotoScenario(id); return err })
	return err
}

func (g *timedGame) Advance(ticks int) (err error) {
	g.act(func() error { err = g.c.Advance(ticks); return err })
	return err
}

func (g *timedGame) Watch() error {
	began := time.Now()
	sp := g.w.tr.Begin("frame")
	err := g.c.Watch()
	g.w.tr.End(sp)
	*g.frames = append(*g.frames, sample{g.w.tr.now(), time.Since(began)})
	if err != nil {
		g.failed++
	}
	return err
}

package content

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/media/studio"
	"repro/internal/media/synth"
)

// reshoot gives shot k a new take: a new noise seed and, with pan, new
// camera motion — which also changes the next shot's fade-in, since a fade
// extrapolates the previous shot.
func reshoot(f *synth.Film, k int, rng *rand.Rand, pan bool) {
	f.Shots[k].Seed = rng.Uint64()
	if pan {
		f.Shots[k].PanSpeed += 0.25 + rng.Float64()
	}
}

// renderAll renders every frame of the film.
func renderAll(f *synth.Film) [][]byte {
	out := make([][]byte, f.FrameCount())
	for i := range out {
		out[i] = f.Render(i).Pix
	}
	return out
}

// changedGOPs is the oracle for incremental re-recording: the indices of
// the GOPs holding at least one frame whose pixels differ.
func changedGOPs(before, after [][]byte, gop int) []int {
	var out []int
	for start := 0; start < len(after); start += gop {
		for i := start; i < min(start+gop, len(after)); i++ {
			if !bytes.Equal(before[i], after[i]) {
				out = append(out, start/gop)
				break
			}
		}
	}
	return out
}

// overlappingGOPs lists the GOPs that share a frame with shot k.
func overlappingGOPs(f *synth.Film, k, gop int) []int {
	var out []int
	first, last := f.ShotStart(k), f.ShotStart(k)+f.Shots[k].Frames-1
	for g := first / gop; g <= last/gop; g++ {
		out = append(out, g)
	}
	return out
}

// checkRecord records c through its recorder and, when the recording
// could reuse GOPs, checks the blob against a fresh studio.Record. It
// returns the recorder's counter deltas.
func checkRecord(t *testing.T, c *Course, opts studio.Options, what string) studio.RecorderStats {
	t.Helper()
	before := c.rec.Stats()
	got, err := c.RecordVideo(opts)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	after := c.rec.Stats()
	if after.Reused > before.Reused {
		ref := opts
		ref.Chapters = c.Chapters
		want, err := studio.Record(c.Film, ref)
		if err != nil {
			t.Fatalf("%s: reference: %v", what, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: re-recording differs from a fresh Record (%d vs %d bytes)", what, len(got), len(want))
		}
	}
	return studio.RecorderStats{
		Recordings: after.Recordings - before.Recordings,
		Encoded:    after.Encoded - before.Encoded,
		Reused:     after.Reused - before.Reused,
	}
}

// sweepCourse primes c with two recordings, then re-shoots one random shot
// per step and checks every re-recording against a fresh Record and the
// changed-GOP oracle.
func sweepCourse(t *testing.T, name string, c *Course, opts studio.Options, reshoots int, rng *rand.Rand) {
	t.Helper()
	gop := opts.GOP
	if gop == 0 {
		gop = c.Film.FPS
	}
	gops := (c.Film.FrameCount() + gop - 1) / gop
	if st := checkRecord(t, c, opts, name+" first recording"); st.Encoded != gops {
		t.Fatalf("%s: first recording encoded %d of %d GOPs", name, st.Encoded, gops)
	}
	// The first recording keeps nothing, so the second reuses nothing.
	if st := checkRecord(t, c, opts, name+" second recording"); st.Reused != 0 {
		t.Fatalf("%s: second recording reused %d GOPs the first should not have kept", name, st.Reused)
	}
	for step := 0; step < reshoots; step++ {
		k := rng.Intn(len(c.Film.Shots))
		pan := rng.Intn(3) == 0
		before := renderAll(c.Film)
		reshoot(c.Film, k, rng, pan)
		want := changedGOPs(before, renderAll(c.Film), gop)
		if !pan {
			// A new noise seed changes exactly the shot's own frames, or
			// none of them without noise.
			overlap := overlappingGOPs(c.Film, k, gop)
			if c.Film.Shots[k].NoiseAmp == 0 {
				overlap = nil
			}
			if fmt.Sprint(want) != fmt.Sprint(overlap) {
				t.Fatalf("%s: re-seeding shot %d changed GOPs %v, want %v", name, k, want, overlap)
			}
		}
		what := fmt.Sprintf("%s step %d (shot %d, pan %v)", name, step, k, pan)
		st := checkRecord(t, c, opts, what)
		if st.Encoded != len(want) || st.Reused != gops-len(want) {
			t.Fatalf("%s: encoded %d, reused %d; want %d re-encoded of %d GOPs", what, st.Encoded, st.Reused, len(want), gops)
		}
	}
}

// TestRecordReshootSweep is the differential sweep for incremental
// re-recording: about 200 seeded re-shoots over the bundled courses and
// synthetic films with shot boundaries off the GOP grid, fades across the
// edited cut, final partial GOPs and noise-free shots.
func TestRecordReshootSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	t.Run("bundled", func(t *testing.T) {
		for _, c := range []struct {
			name   string
			course *Course
		}{{"classroom", Classroom()}, {"museum", Museum()}, {"street", StreetDemo()}} {
			sweepCourse(t, c.name, c.course, studio.Options{QStep: 8}, 1, rng)
		}
	})
	t.Run("synthetic", func(t *testing.T) {
		for i := 0; i < 48; i++ {
			seed := rng.Int63()
			c := &Course{Film: synth.Generate(synth.Spec{
				W: 32, H: 24, FPS: 8,
				Shots: 2 + rng.Intn(4), MinShotFrames: 3, MaxShotFrames: 14,
				FadeFraction: 0.5, FadeFrames: 2 + rng.Intn(3),
				NoiseAmp: rng.Intn(4), Seed: seed,
			})}
			opts := studio.Options{
				QStep:       []int{4, 8, 16}[rng.Intn(3)],
				GOP:         3 + rng.Intn(8),
				SearchRange: rng.Intn(4),
				Workers:     1 + rng.Intn(2),
			}
			name := fmt.Sprintf("film %d (seed %d)", i, seed)
			sweepCourse(t, name, c, opts, 4, rng)
			// Any config change reuses nothing, however much it could have.
			changed := opts
			switch rng.Intn(3) {
			case 0:
				changed.QStep++
			case 1:
				changed.GOP++
			default:
				// 1 → 2 → 3 → 1, where 0 stands for the default range, 3.
				changed.SearchRange = opts.SearchRange%3 + 1
				if opts.SearchRange == 0 {
					changed.SearchRange = 1
				}
			}
			if st := checkRecord(t, c, changed, name+" config change"); st.Reused != 0 {
				t.Fatalf("%s: config change %+v reused %d GOPs", name, changed, st.Reused)
			}
		}
	})
}

func TestRecordVideoConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := &Course{Film: synth.Generate(synth.Spec{
		W: 64, H: 48, FPS: 8, Shots: 4, MinShotFrames: 5, MaxShotFrames: 12,
		FadeFraction: 0.5, FadeFrames: 3, NoiseAmp: 2, Seed: 5,
	})}
	profiles := []studio.Options{{QStep: 8, GOP: 5}, {QStep: 6, GOP: 5}}
	for round := 0; round < 4; round++ {
		reshoot(c.Film, rng.Intn(len(c.Film.Shots)), rng, false)
		want := make([][]byte, len(profiles))
		for i, o := range profiles {
			var err error
			if want[i], err = studio.Record(c.Film, o); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 3; j++ {
					p := (g + j) % len(profiles)
					got, err := c.RecordVideo(profiles[p])
					if err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(got, want[p]) {
						t.Errorf("round %d: concurrent recording with %+v differs from a fresh Record", round, profiles[p])
					}
				}
			}()
		}
		wg.Wait()
	}
	if st := c.rec.Stats(); st.Recordings != 4*4*3 || st.Reused == 0 {
		t.Errorf("stats %+v: want 48 recordings with some reuse", st)
	}
}

// BenchmarkRecordReshoot is the author's republish loop: re-seed one shot
// of the classroom course, then record it at the publish profile.
func BenchmarkRecordReshoot(b *testing.B) {
	c := Classroom()
	opts := studio.Options{QStep: 8}
	for i := 0; i < 2; i++ {
		if _, err := c.RecordVideo(opts); err != nil {
			b.Fatal(err)
		}
	}
	base := c.rec.Stats()
	b.ReportAllocs()
	take := uint64(0)
	for b.Loop() {
		take++
		k := int(take) % len(c.Film.Shots)
		c.Film.Shots[k].Seed = take * 0x9e3779b97f4a7c15
		if _, err := c.RecordVideo(opts); err != nil {
			b.Fatal(err)
		}
	}
	st := c.rec.Stats()
	b.ReportMetric(float64(st.Reused-base.Reused)/float64(st.Encoded+st.Reused-base.Encoded-base.Reused), "reused-share")
}

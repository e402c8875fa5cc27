package studio

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/media/container"
	"repro/internal/media/raster"
	"repro/internal/media/synth"
	"repro/internal/media/vcodec"
)

func shortFilm() *synth.Film {
	return synth.Generate(synth.Spec{
		W: 64, H: 48, FPS: 8,
		Shots: 3, MinShotFrames: 6, MaxShotFrames: 8,
		Seed: 11,
	})
}

func TestRecordProducesValidContainer(t *testing.T) {
	film := shortFilm()
	blob, err := Record(film, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := container.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	m := r.Meta()
	if m.FrameCount != film.FrameCount() || m.Width != film.W || m.FPS != film.FPS {
		t.Errorf("meta %+v does not match film", m)
	}
	// Every packet decodes in sequence with sane quality.
	dec := vcodec.NewDecoder(1)
	for i := 0; i < m.FrameCount; i++ {
		data, _, err := r.PacketAt(i)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.Decode(data)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if p := raster.PSNR(film.Render(i), got); p < 22 {
			t.Errorf("frame %d PSNR %.1f too low", i, p)
		}
	}
}

func TestRecordShotMarkers(t *testing.T) {
	film := shortFilm()
	blob, err := Record(film, Options{ShotMarkers: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := container.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	chs := r.Chapters()
	if len(chs) != len(film.Shots) {
		t.Fatalf("%d chapters, want %d", len(chs), len(film.Shots))
	}
	for k, ch := range chs {
		if ch.Start != film.ShotStart(k) {
			t.Errorf("chapter %d starts at %d, want %d", k, ch.Start, film.ShotStart(k))
		}
		if !strings.Contains(ch.Name, film.Shots[k].Scene.String()) {
			t.Errorf("chapter name %q missing scene kind", ch.Name)
		}
	}
	// Chapters must tile the film exactly.
	if chs[0].Start != 0 || chs[len(chs)-1].End != film.FrameCount() {
		t.Error("chapters do not span the film")
	}
	for i := 1; i < len(chs); i++ {
		if chs[i].Start != chs[i-1].End {
			t.Errorf("gap between chapters %d and %d", i-1, i)
		}
	}
}

func TestRecordDefaultGOPIsFPS(t *testing.T) {
	film := shortFilm()
	blob, err := Record(film, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, _ := container.Open(blob)
	if r.Meta().GOP != film.FPS {
		t.Errorf("GOP = %d, want fps %d", r.Meta().GOP, film.FPS)
	}
	// Frame 8 (one second in) must be an I-frame.
	_, ft, _ := r.PacketAt(film.FPS)
	if ft != vcodec.IFrame {
		t.Error("GOP boundary is not an I-frame")
	}
}

func TestRecordRejectsBadOptions(t *testing.T) {
	film := shortFilm()
	if _, err := Record(film, Options{QStep: 999}); err == nil {
		t.Error("absurd qstep accepted")
	}
}

// referenceRecord is Record written as one continuous encode with chapters
// added afterwards: the reference the Recorder's GOP-by-GOP path must
// match byte for byte.
func referenceRecord(t *testing.T, film *synth.Film, opts Options) []byte {
	t.Helper()
	opts = opts.withDefaults(film.FPS)
	enc, err := vcodec.NewEncoder(vcodec.Config{
		Width: film.W, Height: film.H, QStep: opts.QStep, GOP: opts.GOP,
		SearchRange: opts.SearchRange, Workers: opts.Workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Close()
	mux, err := container.NewMuxer(container.Meta{Width: film.W, Height: film.H, FPS: film.FPS, GOP: opts.GOP})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < film.FrameCount(); i++ {
		pkt, err := enc.Encode(film.Render(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := mux.AddPacket(pkt); err != nil {
			t.Fatal(err)
		}
	}
	chapters := opts.Chapters
	if opts.ShotMarkers && chapters == nil {
		for k := range film.Shots {
			start := film.ShotStart(k)
			chapters = append(chapters, container.Chapter{
				Name:  fmt.Sprintf("shot-%03d-%s", k, film.Shots[k].Scene),
				Start: start, End: start + film.Shots[k].Frames,
			})
		}
	}
	for _, ch := range chapters {
		if err := mux.AddChapter(ch); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := mux.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestRecordMatchesContinuousEncode(t *testing.T) {
	film := shortFilm() // 3 shots of 6–8 frames: boundaries off every grid below
	for _, opts := range []Options{
		{},
		{QStep: 8, GOP: 5, ShotMarkers: true},
		{QStep: 16, GOP: 7, SearchRange: 1, Workers: 1},
		{GOP: 100},
	} {
		got, err := Record(film, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, referenceRecord(t, film, opts)) {
			t.Errorf("%+v: Record differs from the continuous encode", opts)
		}
	}
}

func TestRecordLadderMatchesPerTierRecord(t *testing.T) {
	film := shortFilm()
	opts := Options{GOP: 5, ShotMarkers: true}
	r := new(Recorder)
	for pass := 0; pass < 3; pass++ {
		if pass == 2 {
			film.Shots[1].NoiseAmp = 2 // re-shoot the middle shot with a noisier camera
		}
		rungs, err := r.RecordLadder(film, opts, DefaultLadder())
		if err != nil {
			t.Fatal(err)
		}
		for i, tier := range DefaultLadder() {
			o := opts
			o.QStep = tier.QStep
			if rungs[i].Tier != tier.Name || !bytes.Equal(rungs[i].Video, referenceRecord(t, film, o)) {
				t.Errorf("pass %d: rung %q differs from a Record at QStep %d", pass, tier.Name, tier.QStep)
			}
		}
	}
	// The re-shoot re-encodes, at every rung, exactly the 5-frame GOPs that
	// overlap shot 1; the rest are reused.
	gops := (film.FrameCount() + 4) / 5
	first, last := film.ShotStart(1)/5, (film.ShotStart(2)-1)/5
	dirty := last - first + 1
	st := r.Stats()
	rungs := len(DefaultLadder())
	if st.Recordings != 3 || st.Reused != (gops-dirty)*rungs || st.Encoded != (2*gops+dirty)*rungs {
		t.Errorf("stats %+v; want %d reused and %d encoded", st, (gops-dirty)*rungs, (2*gops+dirty)*rungs)
	}
}

func TestRecorderAdmission(t *testing.T) {
	film := shortFilm()
	gops := (film.FrameCount() + film.FPS - 1) / film.FPS
	r := new(Recorder)
	first, err := r.Record(film, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.last != nil {
		t.Fatalf("first recording kept %d GOPs", len(r.last))
	}
	for pass := 2; pass <= 3; pass++ {
		got, err := r.Record(film, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, first) {
			t.Fatalf("recording %d differs from the first", pass)
		}
		if len(r.last) != gops {
			t.Fatalf("recording %d kept %d GOPs, want %d", pass, len(r.last), gops)
		}
	}
	if st := r.Stats(); st.Encoded != 2*gops || st.Reused != gops {
		t.Errorf("stats %+v: the third recording should reuse all %d GOPs", st, gops)
	}
}

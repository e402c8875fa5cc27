package gamepack

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/media/studio"
	"repro/internal/media/synth"
)

func fixture(t testing.TB) (*core.Project, []byte) {
	t.Helper()
	film := synth.Generate(synth.Spec{
		W: 48, H: 32, FPS: 8, Shots: 2,
		MinShotFrames: 6, MaxShotFrames: 8, Seed: 3,
	})
	video, err := studio.Record(film, studio.Options{ShotMarkers: true})
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewProject("Packaged Game")
	p.Author = "tester"
	p.StartScenario = "a"
	p.Scenarios = []*core.Scenario{{ID: "a", Name: "A", Segment: "shot-000-x"}}
	return p, video
}

func TestBuildOpenRoundTrip(t *testing.T) {
	p, video := fixture(t)
	blob, err := Build(p, video)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Project.Title != "Packaged Game" || pkg.Project.Author != "tester" {
		t.Error("project content lost")
	}
	if string(pkg.Video) != string(video) {
		t.Error("video bytes differ")
	}
}

func TestSectionsTable(t *testing.T) {
	p, video := fixture(t)
	blob, _ := Build(p, video)
	secs, err := Sections(blob)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{SectionMeta, SectionProject, SectionVideo} {
		if _, ok := secs[name]; !ok {
			t.Errorf("missing section %q", name)
		}
	}
	loc := secs[SectionVideo]
	if loc[1] != len(video) {
		t.Errorf("video section size %d, want %d", loc[1], len(video))
	}
	// The video is the last section: it must run to the end of the blob, so
	// a streaming client can fetch all metadata without touching it.
	if loc[0]+loc[1] != len(blob) {
		t.Error("video section not stored last")
	}
	// Meta section is readable standalone and mentions the title.
	meta := blob[secs[SectionMeta][0] : secs[SectionMeta][0]+secs[SectionMeta][1]]
	if !strings.Contains(string(meta), "Packaged Game") {
		t.Errorf("meta = %s", meta)
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	p, video := fixture(t)
	if _, err := Build(nil, video); err == nil {
		t.Error("nil project accepted")
	}
	if _, err := Build(p, []byte("junk")); err == nil {
		t.Error("bad video accepted")
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	p, video := fixture(t)
	blob, _ := Build(p, video)
	for _, n := range []int{0, 4, 5, 12, len(blob) / 2} {
		if _, err := Open(blob[:n]); !errors.Is(err, ErrBadPackage) {
			t.Errorf("truncated blob (%d): err = %v, want ErrBadPackage", n, err)
		}
	}
	bad := append([]byte("YYYY"), blob[4:]...)
	if _, err := Open(bad); err == nil {
		t.Error("bad magic accepted")
	}
	// Flip a byte inside the video payload: section CRC must catch it.
	secs, _ := Sections(blob)
	loc := secs[SectionVideo]
	flip := append([]byte(nil), blob...)
	flip[loc[0]+loc[1]/2] ^= 0x10
	if _, err := Open(flip); err == nil {
		t.Error("payload corruption not detected")
	}
	// Trailing junk.
	junk := append(append([]byte(nil), blob...), 1, 2, 3)
	if _, err := Open(junk); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestOpenMissingSection(t *testing.T) {
	// Hand-craft a package with only a meta section.
	var blob []byte
	blob = append(blob, "TKGP"...)
	blob = append(blob, 1, 1) // version, 1 section
	blob = append(blob, 4)
	blob = append(blob, "meta"...)
	blob = append(blob, 2)                      // payload len
	blob = append(blob, 0x4A, 0x1E, 0x20, 0x78) // wrong crc is fine; not read
	blob = append(blob, "{}"...)
	if _, err := Open(blob); err == nil {
		t.Error("package without project/video accepted")
	}
}

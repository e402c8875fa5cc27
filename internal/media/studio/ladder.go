// Quality ladder: one film recorded at several rate tiers. Every tier
// shares the frame clock, GOP structure and chapter table — only the
// quantizer step differs — so a ladder-aware client can switch tiers at
// any segment boundary and keep frame-exact playback, and the package
// layer can cut every tier's chunks at the same segment-aligned offsets.
package studio

import (
	"fmt"
	"strings"

	"repro/internal/media/synth"
)

// Tier names one rung of the quality ladder. The empty name is the
// canonical full-quality tier — it becomes the package's plain "video"
// section, which is what ladder-unaware consumers (legacy clients, the
// play service's default open) keep using.
type Tier struct {
	Name  string // "", "med", "low", "min", ... ("" = canonical tier)
	QStep int    // quantizer step for this rung (larger = smaller & worse)
}

// TierVideo is one recorded rung: the tier name and its TKVC blob.
type TierVideo struct {
	Tier  string
	Video []byte
}

// DefaultLadder is the stock 4-rung ladder. The quantizer spacing gives
// roughly a 4–6× byte spread between the top and bottom rungs on the
// synthetic footage corpus, which combined with segment-level switching
// covers the 10× bandwidth spread E19 tests against.
func DefaultLadder() []Tier {
	return []Tier{
		{Name: "", QStep: 4},     // canonical "video" section
		{Name: "med", QStep: 10}, // mid rung
		{Name: "low", QStep: 24}, // constrained links
		{Name: "min", QStep: 64}, // survival rung (mobile-2g class)
	}
}

// validateLadder rejects empty ladders, duplicate tier names and a
// missing canonical ("") tier.
func validateLadder(tiers []Tier) error {
	if len(tiers) == 0 {
		return fmt.Errorf("studio: empty quality ladder")
	}
	seen := map[string]bool{}
	hasCanonical := false
	for _, t := range tiers {
		name := strings.TrimSpace(t.Name)
		if name != t.Name || strings.ContainsAny(name, "/ @") {
			return fmt.Errorf("studio: bad tier name %q", t.Name)
		}
		if seen[name] {
			return fmt.Errorf("studio: duplicate tier %q", name)
		}
		seen[name] = true
		if name == "" {
			hasCanonical = true
		}
	}
	if !hasCanonical {
		return fmt.Errorf("studio: ladder lacks the canonical \"\" tier")
	}
	return nil
}

// RecordLadder records the film at every tier, holding everything but
// the quantizer fixed across rungs (same GOP, same search range, same
// chapters), and returns the rungs in ladder order. opts.QStep is
// ignored; each tier's QStep wins. It is a one-shot Recorder.
func RecordLadder(film *synth.Film, opts Options, tiers []Tier) ([]TierVideo, error) {
	return new(Recorder).RecordLadder(film, opts, tiers)
}

// RecordLadder is the package-level RecordLadder on this recorder: each
// GOP is rendered and hashed once, encoded at every rung, and reused per
// rung from the last recording when its frames did not change. Every rung
// is byte-identical to a Record at that tier's QStep.
func (r *Recorder) RecordLadder(film *synth.Film, opts Options, tiers []Tier) ([]TierVideo, error) {
	if err := validateLadder(tiers); err != nil {
		return nil, err
	}
	// Pin the defaults once so every rung shares them even when the
	// caller left them zero (GOP in particular must match across tiers
	// for segment-boundary switching to be frame-exact).
	opts = opts.withDefaults(film.FPS)
	qsteps := make([]int, len(tiers))
	for i, t := range tiers {
		qsteps[i] = Options{QStep: t.QStep}.withDefaults(film.FPS).QStep
	}
	videos, err := r.record(film, opts, qsteps)
	if err != nil {
		return nil, err
	}
	out := make([]TierVideo, len(tiers))
	for i, t := range tiers {
		out[i] = TierVideo{Tier: t.Name, Video: videos[i]}
	}
	return out, nil
}

// Multi-tier streaming: the client half of the quality ladder. A
// RemoteGame carries one rung per "video@<tier>" section in the
// manifest; segments are fetched from whichever rung the ABR picker (or
// an explicit caller) selects, and the frame path decodes each landed
// chunk against the head of the rung that produced it. Per-tier wire
// bytes are accounted on the client exactly as the server accounts them
// on /chunk/, which is what lets E19 reconcile the two to the byte.
package netstream

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/gamepack"
	"repro/internal/media/container"
)

// tierRung is one quality rung's fetch plan: its chunk run, precomputed
// offsets, payload size, and a lazily grown head (the canonical rung's
// head is set at open; other rungs pay for theirs on first use).
type tierRung struct {
	chunks []gamepack.ChunkRef
	offs   []int
	size   int

	mu   sync.Mutex
	head *container.Head
}

// Tiers lists the quality rungs this game can fetch, canonical ("")
// first. A single-quality package yields [""].
func (g *RemoteGame) Tiers() []string {
	out := make([]string, 0, len(g.rungs))
	for tier := range g.rungs {
		out = append(out, tier)
	}
	sort.Strings(out) // "" sorts first
	return out
}

// ABR returns the picker enabled on this game (nil when ABR is off).
func (g *RemoteGame) ABR() *ABRPicker { return g.abr }

// EnableABR attaches a throughput/buffer-driven tier picker sized from
// the ladder itself: each rung's media rate is its payload size over the
// video's duration.
func (g *RemoteGame) EnableABR(cfg ABRConfig) (*ABRPicker, error) {
	meta := g.head.Meta()
	if meta.FPS <= 0 || meta.FrameCount <= 0 {
		return nil, fmt.Errorf("netstream: cannot size ABR ladder from %d frames at %d fps", meta.FrameCount, meta.FPS)
	}
	dur := float64(meta.FrameCount) / float64(meta.FPS)
	infos := make([]TierInfo, 0, len(g.rungs))
	for tier, rung := range g.rungs {
		infos = append(infos, TierInfo{Name: tier, Rate: float64(rung.size) / dur})
	}
	p, err := NewABRPicker(infos, cfg)
	if err != nil {
		return nil, err
	}
	g.abr = p
	return p, nil
}

// TierBytes snapshots the wire bytes fetched per tier by this game
// (video chunks only, cache hits excluded) — the client side of the
// ledger the server's netstream_tier_bytes_total counters keep.
func (g *RemoteGame) TierBytes() map[string]int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]int64, len(g.tierBytes))
	for tier, n := range g.tierBytes {
		out[tier] = n
	}
	return out
}

// SegmentTier reports which tier a fetched segment landed at.
func (g *RemoteGame) SegmentTier(name string) (string, bool) {
	ch, ok := g.head.ChapterByName(name)
	if !ok {
		return "", false
	}
	k, err := g.head.KeyframeAtOrBefore(ch.Start)
	if err != nil {
		return "", false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, have := g.chunks[k]; !have || g.ends[k] < ch.End {
		return "", false
	}
	return g.tierOf[k], true
}

// FetchSegmentTier pulls a segment from an explicit quality rung,
// reporting the transfer cost. Tier "" is the canonical full-quality
// rung. An already-fetched segment is kept at whatever tier landed.
func (g *RemoteGame) FetchSegmentTier(name, tier string) (Stats, error) {
	var st Stats
	began := time.Now()
	err := g.ensureSegmentTier(name, tier, &st)
	st.Elapsed = time.Since(began)
	return st, err
}

// getTierChunk fetches one of a rung's chunks, attributing any wire
// bytes (cache hits transfer none) to the tier's client-side ledger.
func (g *RemoteGame) getTierChunk(tier string, rung *tierRung, i int, st *Stats) ([]byte, error) {
	before := st.BytesFetched
	data, err := g.client.getChunk(g.base, rung.chunks[i], g.cache, st)
	if err != nil {
		return nil, err
	}
	if d := st.BytesFetched - before; d > 0 {
		g.mu.Lock()
		g.tierBytes[tier] += int64(d)
		g.mu.Unlock()
	}
	return data, nil
}

// rungHead returns a rung's parsed head, growing it chunk by chunk on
// first use (video chunking cuts the head/data boundary, so this is one
// chunk in the common case).
func (g *RemoteGame) rungHead(tier string, rung *tierRung, st *Stats) (*container.Head, error) {
	rung.mu.Lock()
	defer rung.mu.Unlock()
	if rung.head != nil {
		return rung.head, nil
	}
	var buf []byte
	for i := range rung.chunks {
		data, err := g.getTierChunk(tier, rung, i, st)
		if err != nil {
			return nil, err
		}
		buf = append(buf, data...)
		head, err := container.ParseHead(buf)
		if err == nil {
			rung.head = head
			return head, nil
		}
		if !errors.Is(err, container.ErrTruncated) {
			return nil, fmt.Errorf("netstream: tier %q head: %w", tier, err)
		}
	}
	return nil, fmt.Errorf("netstream: tier %q head: %w", tier, container.ErrTruncated)
}

// headOf returns the head a fetched chunk's packets index into: the head
// of the tier that produced it (already grown by the fetch).
func (g *RemoteGame) headOf(tier string) *container.Head {
	if tier == "" {
		return g.head
	}
	rung := g.rungs[tier]
	if rung == nil {
		return g.head
	}
	rung.mu.Lock()
	defer rung.mu.Unlock()
	if rung.head == nil {
		return g.head
	}
	return rung.head
}

// fetchRungRange materializes bytes [lo, hi) of one rung's video payload
// from the chunks that cover it.
func (g *RemoteGame) fetchRungRange(tier string, rung *tierRung, lo, hi int, st *Stats) ([]byte, error) {
	i := sort.Search(len(rung.offs), func(i int) bool {
		return rung.offs[i]+rung.chunks[i].Size > lo
	})
	if i == len(rung.offs) {
		return nil, fmt.Errorf("netstream: tier %q video range [%d,%d) beyond manifest", tier, lo, hi)
	}
	var buf []byte
	for ; i < len(rung.chunks) && rung.offs[i] < hi; i++ {
		data, err := g.getTierChunk(tier, rung, i, st)
		if err != nil {
			return nil, err
		}
		from, to := 0, len(data)
		if rung.offs[i] < lo {
			from = lo - rung.offs[i]
		}
		if rung.offs[i]+to > hi {
			to = hi - rung.offs[i]
		}
		buf = append(buf, data[from:to]...)
	}
	if len(buf) != hi-lo {
		return nil, fmt.Errorf("netstream: tier %q video range [%d,%d): got %d bytes", tier, lo, hi, len(buf))
	}
	return buf, nil
}

// ensureSegmentTier fetches the chunks covering a segment (from its
// preceding keyframe) from the given rung, if no rung already covers it.
// Chapter and keyframe geometry are shared across rungs (BuildLadder
// validates this), so the canonical head answers "which frames"; the
// selected rung's head answers "which bytes".
func (g *RemoteGame) ensureSegmentTier(name, tier string, st *Stats) error {
	ch, ok := g.head.ChapterByName(name)
	if !ok {
		return fmt.Errorf("netstream: no segment %q", name)
	}
	k, err := g.head.KeyframeAtOrBefore(ch.Start)
	if err != nil {
		return err
	}
	g.mu.Lock()
	_, have := g.chunks[k]
	if have && g.ends[k] >= ch.End {
		g.mu.Unlock()
		return nil
	}
	g.mu.Unlock()
	rung := g.rungs[tier]
	if rung == nil {
		return fmt.Errorf("netstream: no quality tier %q (have %v)", tier, g.Tiers())
	}
	head, err := g.rungHead(tier, rung, st)
	if err != nil {
		return err
	}
	lo, hi, err := head.ByteRange(k, ch.End)
	if err != nil {
		return err
	}
	chunk, err := g.fetchRungRange(tier, rung, lo, hi, st)
	if err != nil {
		return err
	}
	g.mu.Lock()
	g.chunks[k] = chunk
	g.ends[k] = ch.End
	g.tierOf[k] = tier
	g.starts = append(g.starts, k)
	sort.Ints(g.starts)
	g.mu.Unlock()
	return nil
}

// ProgressiveOpenABR opens a ladder package for adaptive playback: like
// ProgressiveOpenCached, but the start segment is fetched from the
// smallest rung (fast startup on an unknown link) and the returned game
// has an ABR picker enabled — subsequent segment fetches through a
// StreamPlayer (or FetchSegment) ride its tier decisions. A
// single-quality package degrades to plain streaming with a one-rung
// picker.
func (c *Client) ProgressiveOpenABR(url string, cache *PackageCache, cfg ABRConfig) (*RemoteGame, Stats, error) {
	g, st, err := c.progressiveOpen(url, cache, true)
	if err != nil {
		return nil, st, err
	}
	if _, err := g.EnableABR(cfg); err != nil {
		return nil, st, err
	}
	return g, st, nil
}

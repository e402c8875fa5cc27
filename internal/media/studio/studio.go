// Package studio is the platform's "camera and capture card": it renders a
// synthetic film through the TKV1 encoder into a seekable TKVC container.
//
// The paper's course designers "select video files from network or video
// cameras" (§4.1); Record is the moment footage enters the system.
package studio

import (
	"crypto/sha256"
	"fmt"
	"sync"

	"repro/internal/media/container"
	"repro/internal/media/raster"
	"repro/internal/media/synth"
	"repro/internal/media/vcodec"
)

// Options configures a recording session.
type Options struct {
	QStep       int  // quantizer step (default 4)
	GOP         int  // I-frame interval (default fps, i.e. one per second)
	SearchRange int  // motion search radius (default 3)
	Workers     int  // encoder workers (default: all CPUs)
	ShotMarkers bool // add one chapter per ground-truth shot
	// Chapters, when non-nil, is written instead of shot markers — the
	// authoring tool uses it to store scenario segments under its own names.
	Chapters []container.Chapter
}

func (o Options) withDefaults(fps int) Options {
	if o.QStep == 0 {
		o.QStep = 4
	}
	if o.GOP == 0 {
		o.GOP = fps
	}
	if o.SearchRange == 0 {
		o.SearchRange = 3
	}
	// Workers <= 0 passes through: the encoder defaults to all CPUs.
	return o
}

// Record renders every frame of the film, encodes it and returns a
// finalized TKVC blob. With opts.ShotMarkers it adds one chapter per
// ground-truth shot, named "shot-NNN-<scene>". It is a one-shot Recorder,
// so it keeps nothing once it returns.
func Record(film *synth.Film, opts Options) ([]byte, error) {
	return new(Recorder).Record(film, opts)
}

// Recorder records films exactly as Record does and remembers the encoded
// GOPs of its last recording. Recording again — an author re-shooting one
// shot and republishing — re-encodes only the GOPs whose rendered frames
// changed and copies the other GOPs' packets into the new container
// unchanged, so the output is byte-identical to a fresh Record.
//
// A GOP's key is the SHA-256 of its rendered RGB frames plus every encoder
// setting that shapes the bitstream (size, QStep, GOP, SearchRange). Reuse
// is exact because the encoder carries no state across an I-frame: the
// reference is replaced and the previous packet size only presizes
// buffers. Encoded bytes are kept only from a Recorder's second recording
// on, so a Recorder used once holds nothing, and only for the last
// recording (every rung of it, for a ladder).
//
// The zero Recorder is ready to use. It is safe for concurrent use;
// recordings are serialized.
type Recorder struct {
	mu    sync.Mutex
	last  map[gopKey][]vcodec.Packet
	stats RecorderStats
}

// RecorderStats counts a Recorder's work since it was created.
type RecorderStats struct {
	Recordings int // completed recordings (a ladder counts once)
	Encoded    int // GOPs encoded afresh, one per rung
	Reused     int // GOPs copied from the previous recording, one per rung
}

// gopKey identifies one encoded GOP. Workers is absent: row parallelism
// never changes the bitstream.
type gopKey struct {
	frames                        [sha256.Size]byte
	w, h, qstep, gop, searchRange int
}

// Stats returns the recorder's counters.
func (r *Recorder) Stats() RecorderStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Record is the package-level Record, reusing the GOPs of this recorder's
// last recording that did not change.
func (r *Recorder) Record(film *synth.Film, opts Options) ([]byte, error) {
	opts = opts.withDefaults(film.FPS)
	videos, err := r.record(film, opts, []int{opts.QStep})
	if err != nil {
		return nil, err
	}
	return videos[0], nil
}

// rung is one output of a recording: its encoder and container.
type rung struct {
	qstep int
	enc   *vcodec.Encoder
	mux   *container.Muxer
}

// record renders the film once, GOP by GOP, and encodes each GOP at every
// quantizer step in qsteps (unless the last recording already holds it),
// returning one finalized TKVC blob per step. opts carries its defaults.
func (r *Recorder) record(film *synth.Film, opts Options, qsteps []int) ([][]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rungs := make([]rung, len(qsteps))
	for i, q := range qsteps {
		enc, err := vcodec.NewEncoder(vcodec.Config{
			Width: film.W, Height: film.H,
			QStep: q, GOP: opts.GOP,
			SearchRange: opts.SearchRange, Workers: opts.Workers,
		})
		if err != nil {
			return nil, fmt.Errorf("studio: %w", err)
		}
		defer enc.Close()
		mux, err := container.NewMuxer(container.Meta{
			Width: film.W, Height: film.H, FPS: film.FPS, GOP: opts.GOP,
		})
		if err != nil {
			return nil, fmt.Errorf("studio: %w", err)
		}
		rungs[i] = rung{qstep: q, enc: enc, mux: mux}
	}

	n := film.FrameCount()
	var next map[gopKey][]vcodec.Packet
	if r.stats.Recordings > 0 {
		next = make(map[gopKey][]vcodec.Packet, len(rungs)*((n+opts.GOP-1)/opts.GOP))
	}
	var encoded, reused int
	frames := make([]*raster.Frame, 0, opts.GOP)
	for start := 0; start < n; start += opts.GOP {
		frames = frames[:0]
		sum := sha256.New()
		for i := start; i < min(start+opts.GOP, n); i++ {
			f := film.Render(i)
			sum.Write(f.Pix)
			frames = append(frames, f)
		}
		key := gopKey{w: film.W, h: film.H, gop: opts.GOP, searchRange: opts.SearchRange}
		sum.Sum(key.frames[:0])
		for _, rg := range rungs {
			key.qstep = rg.qstep
			pkts, ok := r.last[key]
			if ok {
				reused++
			} else {
				var err error
				if pkts, err = encodeGOP(rg.enc, frames, next != nil); err != nil {
					return nil, fmt.Errorf("studio: GOP at frame %d: %w", start, err)
				}
				encoded++
			}
			for j, p := range pkts {
				p.Index = start + j
				if err := rg.mux.AddPacket(p); err != nil {
					return nil, fmt.Errorf("studio: frame %d: %w", p.Index, err)
				}
			}
			if next != nil {
				next[key] = pkts
			}
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
	videos := make([][]byte, len(rungs))
	for i, rg := range rungs {
		for _, ch := range chapters {
			if err := rg.mux.AddChapter(ch); err != nil {
				return nil, fmt.Errorf("studio: %w", err)
			}
		}
		blob, err := rg.mux.Finalize()
		if err != nil {
			return nil, fmt.Errorf("studio: %w", err)
		}
		videos[i] = blob
	}
	r.last = next
	r.stats.Recordings++
	r.stats.Encoded += encoded
	r.stats.Reused += reused
	return videos, nil
}

// encodeGOP encodes one GOP from a reset encoder, so its packets are the
// ones a continuous encode would emit for these frames. Packet indices are
// relative to the GOP. With keep, the payloads are copied into one
// exactly-sized buffer, since they outlive the recording.
func encodeGOP(enc *vcodec.Encoder, frames []*raster.Frame, keep bool) ([]vcodec.Packet, error) {
	enc.Reset()
	pkts := make([]vcodec.Packet, len(frames))
	size := 0
	for i, f := range frames {
		p, err := enc.Encode(f)
		if err != nil {
			return nil, err
		}
		pkts[i] = p
		size += len(p.Data)
	}
	if keep {
		buf := make([]byte, 0, size)
		for i := range pkts {
			off := len(buf)
			buf = append(buf, pkts[i].Data...)
			pkts[i].Data = buf[off:len(buf):len(buf)]
		}
	}
	return pkts, nil
}

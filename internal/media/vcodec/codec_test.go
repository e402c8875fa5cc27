package vcodec

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/media/raster"
	"repro/internal/media/synth"
)

func testFilm(t testing.TB) *synth.Film {
	t.Helper()
	return synth.Generate(synth.Spec{
		W: 96, H: 64, FPS: 12,
		Shots: 3, MinShotFrames: 8, MaxShotFrames: 12,
		NoiseAmp: 1, Seed: 99,
	})
}

func encCfg(w, h int) Config {
	return Config{Width: w, Height: h, QStep: 4, GOP: 8, SearchRange: 3, Workers: 2}
}

func TestDCTRoundTrip(t *testing.T) {
	// The fixed-point butterfly is not exact like the old float64 basis
	// transform, but a full-range round trip must stay within ±1 — the same
	// order as the quantizer's own rounding at qstep 1.
	var src, freq, back [64]int32
	for i := range src {
		src[i] = int32((i*37)%256) - 128
	}
	fdct8x8(&src, &freq)
	idct8x8(&freq, &back)
	for i := range src {
		if d := src[i] - back[i]; d > 1 || d < -1 {
			t.Fatalf("DCT round trip error at %d: %d vs %d", i, src[i], back[i])
		}
	}
}

func TestDCTRoundTripResidualRange(t *testing.T) {
	// Residual blocks span ±255, twice the intra range; the integer
	// transform must not overflow or lose accuracy there.
	var src, freq, back [64]int32
	for i := range src {
		if i%2 == 0 {
			src[i] = 255 - int32(i)
		} else {
			src[i] = -255 + int32(3*i)%200
		}
	}
	fdct8x8(&src, &freq)
	idct8x8(&freq, &back)
	for i := range src {
		if d := src[i] - back[i]; d > 1 || d < -1 {
			t.Fatalf("residual round trip error at %d: %d vs %d", i, src[i], back[i])
		}
	}
}

func TestDCTConstantBlockIsDCOnly(t *testing.T) {
	var src, freq [64]int32
	for i := range src {
		src[i] = 42
	}
	fdct8x8(&src, &freq)
	// Coefficients are 8× the orthonormal DCT: DC = 8 * (42*8) = 2688.
	if freq[0] != 42*8<<coefScaleBits {
		t.Errorf("DC = %d, want %d", freq[0], 42*8<<coefScaleBits)
	}
	for i := 1; i < 64; i++ {
		if freq[i] != 0 {
			t.Fatalf("AC coefficient %d = %d, want 0", i, freq[i])
		}
	}
}

func TestZigzagIsPermutation(t *testing.T) {
	seen := [64]bool{}
	for _, p := range zigzag {
		if p < 0 || p >= 64 || seen[p] {
			t.Fatalf("zigzag invalid at position %d", p)
		}
		seen[p] = true
	}
	// Starts at DC, ends at the highest frequency.
	if zigzag[0] != 0 || zigzag[63] != 63 {
		t.Errorf("zigzag endpoints %d..%d", zigzag[0], zigzag[63])
	}
	if zigzag[1] != 1 || zigzag[2] != 8 {
		t.Errorf("zigzag start order wrong: %v", zigzag[:4])
	}
}

func TestQuantizeRoundTripLowQ(t *testing.T) {
	// Coefficients carry coefScaleBits fractional bits, so a qstep-1 round
	// trip may be off by at most half a true unit (half of 1<<coefScaleBits).
	var coefs [64]int32
	for i := range coefs {
		coefs[i] = int32(i*7-200) << coefScaleBits
	}
	var levels [64]int32
	quantize(&coefs, 1, &levels)
	var back [64]int32
	dequantize(&levels, 1, &back)
	for i := range coefs {
		d := coefs[i] - back[i]
		if d < 0 {
			d = -d
		}
		if d > 1<<(coefScaleBits-1) {
			t.Fatalf("q=1 round trip error %d at %d", coefs[i]-back[i], i)
		}
	}
}

func TestQuantizeHalfStepDCExact(t *testing.T) {
	// The DC quantizer step is qstep/2; with odd qsteps that is a half-unit
	// value the fixed-point coefficient scale must represent exactly.
	dcDiv, acDiv := quantDivisors(5)
	if dcDiv != 5<<coefScaleBits/2 {
		t.Errorf("dc divisor = %d, want %d", dcDiv, 5<<coefScaleBits/2)
	}
	if acDiv != 5<<coefScaleBits {
		t.Errorf("ac divisor = %d, want %d", acDiv, 5<<coefScaleBits)
	}
	// qstep 1 clamps the DC step up to one full unit.
	dcDiv, _ = quantDivisors(1)
	if dcDiv != 1<<coefScaleBits {
		t.Errorf("q=1 dc divisor = %d, want %d", dcDiv, 1<<coefScaleBits)
	}
}

func TestLevelsCodingRoundTrip(t *testing.T) {
	err := quick.Check(func(vals [8]int16, positions [8]uint8) bool {
		var levels [64]int32
		for i := range vals {
			levels[positions[i]%64] = int32(vals[i])
		}
		var w byteWriter
		writeLevels(&w, &levels)
		var got [64]int32
		r := &byteReader{buf: w.buf}
		if err := readLevels(r, &got); err != nil {
			return false
		}
		return got == levels && r.remaining() == 0
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestLevelsAllZeroIsOneByte(t *testing.T) {
	var levels [64]int32
	var w byteWriter
	writeLevels(&w, &levels)
	if len(w.buf) != 1 {
		t.Errorf("all-zero block coded in %d bytes, want 1", len(w.buf))
	}
}

func TestReadLevelsRejectsCorrupt(t *testing.T) {
	// One pair whose zero-run uvarint is 1<<63: int(run) would wrap negative
	// without the explicit run bound.
	hugeRun := append([]byte{1}, binary.AppendUvarint(nil, 1<<63)...)
	hugeRun = append(hugeRun, 2)
	cases := [][]byte{
		{},               // empty
		{200},            // pair count > 64
		{1},              // missing pair
		{1, 70, 2},       // run beyond block
		{2, 0, 2, 63, 2}, // second pair out of range
		{1, 0, 0},        // explicit zero level
		hugeRun,          // 64-bit run overflows int32 index
	}
	for i, c := range cases {
		var levels [64]int32
		if err := readLevels(&byteReader{buf: c}, &levels); err == nil {
			t.Errorf("case %d: corrupt stream accepted", i)
		}
	}
}

func TestYCbCrRoundTripApprox(t *testing.T) {
	f := raster.New(33, 17) // odd size exercises padding + subsampling
	f.FillVGradient(raster.RGB{R: 200, G: 60, B: 40}, raster.RGB{R: 20, G: 80, B: 180})
	g := toYCbCr(f).toFrame()
	if g.W != f.W || g.H != f.H {
		t.Fatalf("size changed: %dx%d", g.W, g.H)
	}
	// 4:2:0 is lossy in chroma; luma should survive well. Allow moderate MAD.
	if mad := raster.MAD(f, g); mad > 12 {
		t.Errorf("YCbCr 4:2:0 round trip MAD = %f, too lossy", mad)
	}
}

func TestEncodeDecodeIntraQuality(t *testing.T) {
	film := testFilm(t)
	src := film.Render(0)
	enc, err := NewEncoder(Config{Width: src.W, Height: src.H, QStep: 2, GOP: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := enc.Encode(src)
	if err != nil {
		t.Fatal(err)
	}
	if pkt.Type != IFrame {
		t.Fatalf("first frame type = %v, want I", pkt.Type)
	}
	dec := NewDecoder(2)
	got, err := dec.Decode(pkt.Data)
	if err != nil {
		t.Fatal(err)
	}
	if p := raster.PSNR(src, got); p < 30 {
		t.Errorf("I-frame PSNR = %.1f dB at q=2, want >= 30", p)
	}
}

func TestGOPPattern(t *testing.T) {
	film := testFilm(t)
	enc, _ := NewEncoder(encCfg(96, 64))
	for i := 0; i < 20; i++ {
		pkt, err := enc.Encode(film.Render(i % film.FrameCount()))
		if err != nil {
			t.Fatal(err)
		}
		wantI := i%8 == 0
		if (pkt.Type == IFrame) != wantI {
			t.Fatalf("frame %d type = %v, want I=%v", i, pkt.Type, wantI)
		}
		if pkt.Index != i {
			t.Fatalf("packet index = %d, want %d", pkt.Index, i)
		}
	}
}

func TestPFramesSmallerOnStaticContent(t *testing.T) {
	// A static scene: P-frames should collapse to mostly skip blocks.
	f := raster.New(96, 64)
	f.FillVGradient(raster.Blue, raster.Black)
	enc, _ := NewEncoder(encCfg(96, 64))
	i0, _ := enc.Encode(f)
	p1, _ := enc.Encode(f)
	if len(p1.Data) >= len(i0.Data)/4 {
		t.Errorf("static P-frame %dB vs I-frame %dB: P should be <25%%", len(p1.Data), len(i0.Data))
	}
}

func TestDecodeSequenceMatchesEncoderReference(t *testing.T) {
	film := testFilm(t)
	enc, _ := NewEncoder(encCfg(96, 64))
	dec := NewDecoder(1)
	for i := 0; i < 16; i++ {
		src := film.Render(i)
		pkt, err := enc.Encode(src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.Decode(pkt.Data)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if p := raster.PSNR(src, got); p < 24 {
			t.Errorf("frame %d PSNR %.1f dB too low (drift?)", i, p)
		}
	}
}

func TestDecoderWorkerCountIrrelevant(t *testing.T) {
	film := testFilm(t)
	enc, _ := NewEncoder(encCfg(96, 64))
	var pkts []Packet
	for i := 0; i < 10; i++ {
		p, _ := enc.Encode(film.Render(i))
		pkts = append(pkts, p)
	}
	d1, d4 := NewDecoder(1), NewDecoder(4)
	for i, p := range pkts {
		a, err1 := d1.Decode(p.Data)
		b, err2 := d4.Decode(p.Data)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !a.Equal(b) {
			t.Fatalf("frame %d differs between 1 and 4 decode workers", i)
		}
	}
}

func TestEncoderWorkerCountIrrelevant(t *testing.T) {
	film := testFilm(t)
	cfg := encCfg(96, 64)
	cfg.Workers = 1
	e1, _ := NewEncoder(cfg)
	cfg.Workers = 4
	e4, _ := NewEncoder(cfg)
	for i := 0; i < 6; i++ {
		src := film.Render(i)
		p1, _ := e1.Encode(src)
		p4, _ := e4.Encode(src)
		if string(p1.Data) != string(p4.Data) {
			t.Fatalf("frame %d bitstream differs across encoder worker counts", i)
		}
	}
}

func TestPFrameWithoutReferenceFails(t *testing.T) {
	film := testFilm(t)
	enc, _ := NewEncoder(encCfg(96, 64))
	enc.Encode(film.Render(0))           // I
	pkt, _ := enc.Encode(film.Render(1)) // P
	dec := NewDecoder(1)
	if _, err := dec.Decode(pkt.Data); err == nil {
		t.Fatal("decoding P-frame without reference should fail")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	dec := NewDecoder(1)
	for _, data := range [][]byte{
		nil,
		[]byte("X"),
		[]byte("JUNKJUNKJUNK"),
		[]byte("TKV1\x07morejunk"), // bad frame type
	} {
		if _, err := dec.Decode(data); err == nil {
			t.Errorf("garbage %q accepted", data)
		}
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	film := testFilm(t)
	enc, _ := NewEncoder(encCfg(96, 64))
	pkt, _ := enc.Encode(film.Render(0))
	for _, n := range []int{5, 10, len(pkt.Data) / 2, len(pkt.Data) - 1} {
		dec := NewDecoder(2)
		if _, err := dec.Decode(pkt.Data[:n]); err == nil {
			t.Errorf("truncated packet (%d bytes) accepted", n)
		}
	}
}

func TestHigherQLowerQualitySmallerSize(t *testing.T) {
	film := testFilm(t)
	src := film.Render(4)
	var prevSize = 1 << 30
	var prevPSNR = math.Inf(1)
	for _, q := range []int{2, 6, 16} {
		enc, _ := NewEncoder(Config{Width: src.W, Height: src.H, QStep: q, GOP: 1, Workers: 1})
		pkt, _ := enc.Encode(src)
		dec := NewDecoder(1)
		rec, err := dec.Decode(pkt.Data)
		if err != nil {
			t.Fatal(err)
		}
		p := raster.PSNR(src, rec)
		if len(pkt.Data) >= prevSize {
			t.Errorf("q=%d size %d not smaller than previous %d", q, len(pkt.Data), prevSize)
		}
		if p >= prevPSNR {
			t.Errorf("q=%d PSNR %.1f not lower than previous %.1f", q, p, prevPSNR)
		}
		prevSize, prevPSNR = len(pkt.Data), p
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Width: 0, Height: 10, QStep: 4, GOP: 5},
		{Width: 10, Height: 10, QStep: 0, GOP: 5},
		{Width: 10, Height: 10, QStep: 400, GOP: 5},
		{Width: 10, Height: 10, QStep: 4, GOP: 0},
		{Width: 10, Height: 10, QStep: 4, GOP: 5, SearchRange: 9},
		{Width: 10, Height: 10, QStep: 4, GOP: 5, Workers: MaxWorkers + 1},
		{Width: maxDim + 8, Height: 10, QStep: 4, GOP: 5}, // decoder would reject its own stream
		{Width: 10, Height: maxDim + 8, QStep: 4, GOP: 5},
	}
	for i, c := range bad {
		if _, err := NewEncoder(c); err == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
}

func TestWorkerDefaultsAndClamp(t *testing.T) {
	// <=0 means all CPUs; absurd counts are clamped to MaxWorkers. The
	// decoder mirrors the encoder's clamping since it has no validate step.
	for _, n := range []int{-1, 0, 1, 7, MaxWorkers, MaxWorkers + 1, 100000} {
		got := normWorkers(n)
		if got < 1 || got > MaxWorkers {
			t.Errorf("normWorkers(%d) = %d, out of [1,%d]", n, got, MaxWorkers)
		}
		if n >= 1 && n <= MaxWorkers && got != n {
			t.Errorf("normWorkers(%d) = %d, want unchanged", n, got)
		}
	}
	if d := NewDecoder(100000); d.workers != MaxWorkers {
		t.Errorf("NewDecoder(100000) workers = %d, want %d", d.workers, MaxWorkers)
	}
	enc, err := NewEncoder(Config{Width: 16, Height: 16, QStep: 4, GOP: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Close()
	if enc.cfg.Workers < 1 || enc.cfg.Workers > MaxWorkers {
		t.Errorf("default encoder workers = %d, out of [1,%d]", enc.cfg.Workers, MaxWorkers)
	}
}

func TestEncoderDecoderCloseStillUsable(t *testing.T) {
	film := testFilm(t)
	enc, _ := NewEncoder(encCfg(96, 64))
	dec := NewDecoder(4)
	p0, err := enc.Encode(film.Render(0))
	if err != nil {
		t.Fatal(err)
	}
	enc.Close()
	dec.Close()
	p1, err := enc.Encode(film.Render(1)) // inline fallback after Close
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Packet{p0, p1} {
		if _, err := dec.Decode(p.Data); err != nil {
			t.Fatal(err)
		}
	}
	enc.Close() // idempotent
	dec.Close()
}

func TestDecodeIntoRecyclesBuffer(t *testing.T) {
	film := testFilm(t)
	enc, _ := NewEncoder(encCfg(96, 64))
	dec := NewDecoder(1)
	var f raster.Frame
	var firstPix []uint8
	for i := 0; i < 6; i++ {
		pkt, err := enc.Encode(film.Render(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := dec.DecodeInto(&f, pkt.Data); err != nil {
			t.Fatal(err)
		}
		if f.W != 96 || f.H != 64 {
			t.Fatalf("frame %d size %dx%d", i, f.W, f.H)
		}
		if i == 0 {
			firstPix = f.Pix[:1]
		} else if &firstPix[0] != &f.Pix[0] {
			t.Fatal("DecodeInto reallocated the pixel buffer")
		}
	}
}

func TestDecodeRejectsHugeFrameTinyPayload(t *testing.T) {
	// A few header bytes claiming a 16384×16384 frame must be rejected
	// before the decoder allocates gigabytes for the image planes.
	var w byteWriter
	w.bytes([]byte(magic))
	w.u8(uint8(IFrame))
	w.uvarint(16384)
	w.uvarint(16384)
	w.uvarint(4) // qstep
	w.u8(0)      // search range
	w.uvarint(2048)
	if _, err := NewDecoder(1).Decode(w.buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tiny huge-frame packet: err = %v, want ErrCorrupt", err)
	}
}

func TestResetRecyclesImageBuffers(t *testing.T) {
	// Seek-heavy playback calls Reset before every backward jump; with the
	// two-slot free list, steady-state Reset+decode performs no image
	// allocations.
	film := testFilm(t)
	enc, _ := NewEncoder(encCfg(96, 64))
	pkt, err := enc.Encode(film.Render(0)) // I-frame
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(1)
	for i := 0; i < 3; i++ { // warm up ref + free list
		if err := dec.Advance(pkt.Data); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		dec.Reset()
		if err := dec.Advance(pkt.Data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 1 {
		t.Errorf("Reset+Advance allocates %.1f objects/op, want 0", allocs)
	}
}

func TestAdvanceMatchesDecode(t *testing.T) {
	// Advancing through P-frames then decoding must land on the same pixels
	// as decoding every frame.
	film := testFilm(t)
	enc, _ := NewEncoder(encCfg(96, 64))
	var pkts []Packet
	for i := 0; i < 8; i++ {
		p, err := enc.Encode(film.Render(i))
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, p)
	}
	full := NewDecoder(1)
	var want *raster.Frame
	for _, p := range pkts {
		f, err := full.Decode(p.Data)
		if err != nil {
			t.Fatal(err)
		}
		want = f
	}
	skip := NewDecoder(1)
	for _, p := range pkts[:len(pkts)-1] {
		if err := skip.Advance(p.Data); err != nil {
			t.Fatal(err)
		}
	}
	got, err := skip.Decode(pkts[len(pkts)-1].Data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("Advance path diverged from Decode path")
	}
}

func TestEncodeWrongSizeFrame(t *testing.T) {
	enc, _ := NewEncoder(encCfg(96, 64))
	if _, err := enc.Encode(raster.New(32, 32)); err == nil {
		t.Fatal("wrong-size frame accepted")
	}
}

func TestEncoderReset(t *testing.T) {
	film := testFilm(t)
	enc, _ := NewEncoder(encCfg(96, 64))
	enc.Encode(film.Render(0))
	enc.Encode(film.Render(1))
	enc.Reset()
	pkt, _ := enc.Encode(film.Render(2))
	if pkt.Type != IFrame || pkt.Index != 0 {
		t.Fatalf("after Reset got %v index %d, want I index 0", pkt.Type, pkt.Index)
	}
}

// TestGOPIndependence pins what incremental re-recording relies on: the
// encoder carries no state across an I-frame, so encoding GOP k alone
// after Reset gives the packets a continuous encode emits for it. A codec
// change that carries state across I-frames (rate control, say) must fail
// here instead of silently corrupting republished courses.
func TestGOPIndependence(t *testing.T) {
	film := testFilm(t)
	cfg := encCfg(96, 64)
	n := film.FrameCount()
	cont, _ := NewEncoder(cfg)
	want := make([]Packet, n)
	for i := range want {
		var err error
		if want[i], err = cont.Encode(film.Render(i)); err != nil {
			t.Fatal(err)
		}
	}
	// One encoder takes the GOPs last to first, so each starts from the
	// state another GOP left behind.
	enc, _ := NewEncoder(cfg)
	for start := (n - 1) / cfg.GOP * cfg.GOP; start >= 0; start -= cfg.GOP {
		enc.Reset()
		for i := start; i < min(start+cfg.GOP, n); i++ {
			p, err := enc.Encode(film.Render(i))
			if err != nil {
				t.Fatal(err)
			}
			if p.Type != want[i].Type || p.Index != i-start || string(p.Data) != string(want[i].Data) {
				t.Fatalf("frame %d: GOP encoded after Reset differs from the continuous encode", i)
			}
		}
	}
}

func TestParseHeader(t *testing.T) {
	film := testFilm(t)
	enc, _ := NewEncoder(encCfg(96, 64))
	i0, _ := enc.Encode(film.Render(0))
	p1, _ := enc.Encode(film.Render(1))
	if ft, err := ParseHeader(i0.Data); err != nil || ft != IFrame {
		t.Errorf("ParseHeader(I) = %v, %v", ft, err)
	}
	if ft, err := ParseHeader(p1.Data); err != nil || ft != PFrame {
		t.Errorf("ParseHeader(P) = %v, %v", ft, err)
	}
	if _, err := ParseHeader([]byte("nope")); err == nil {
		t.Error("ParseHeader accepted garbage")
	}
}

func TestMVPacking(t *testing.T) {
	for dx := -8; dx <= 7; dx++ {
		for dy := -8; dy <= 7; dy++ {
			gx, gy := unpackMV(packMV(dx, dy))
			if gx != dx || gy != dy {
				t.Fatalf("MV (%d,%d) round-tripped to (%d,%d)", dx, dy, gx, gy)
			}
		}
	}
}

func TestOddSizeFrames(t *testing.T) {
	// Non-multiple-of-8 and non-multiple-of-16 dimensions must round trip.
	for _, dims := range [][2]int{{37, 23}, {8, 8}, {9, 9}, {100, 50}} {
		w, h := dims[0], dims[1]
		src := raster.New(w, h)
		src.FillVGradient(raster.Green, raster.Magenta)
		src.FillCircle(w/2, h/2, min(w, h)/3, raster.Yellow)
		enc, err := NewEncoder(Config{Width: w, Height: h, QStep: 2, GOP: 1, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		pkt, err := enc.Encode(src)
		if err != nil {
			t.Fatalf("%dx%d: %v", w, h, err)
		}
		rec, err := NewDecoder(2).Decode(pkt.Data)
		if err != nil {
			t.Fatalf("%dx%d: %v", w, h, err)
		}
		if rec.W != w || rec.H != h {
			t.Fatalf("%dx%d: decoded size %dx%d", w, h, rec.W, rec.H)
		}
		// On this maximally saturated pattern the 4:2:0 chroma subsampling
		// dominates the loss; the right bar is "within 1.5 dB of the pure
		// colorspace round trip", not an absolute PSNR.
		bound := raster.PSNR(src, toYCbCr(src).toFrame())
		if p := raster.PSNR(src, rec); p < bound-1.5 {
			t.Errorf("%dx%d: PSNR %.1f dB, want within 1.5 dB of 4:2:0 bound %.1f", w, h, p, bound)
		}
	}
}

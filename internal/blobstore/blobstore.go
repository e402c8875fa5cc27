// Package blobstore is a content-addressed chunk store: immutable blobs
// keyed by their SHA-256. It is the storage substrate of the delivery
// layer — game packages are split into chunks at video-segment boundaries
// (see gamepack.Manifest), so identical segments shared by several courses
// are stored and transferred exactly once, and a course edit invalidates
// only the chunks whose bytes actually changed.
//
// A Store layers a lock-striped LRU hot-chunk cache over a pluggable
// Backend (in-memory or on-disk). Reads served from the hot tier are
// allocation-free; reads that fall through to the backend are verified
// against their address before they are returned, so a corrupted disk (or
// a tampered cache directory) can never hand bytes to a decoder. A Store
// may also run cache-only (no backend): that shape is the client-side
// chunk cache, where eviction is harmless because any chunk can be
// refetched by hash.
package blobstore

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// HashSize is the size of a chunk address in bytes.
const HashSize = sha256.Size

// Hash is a chunk address: the SHA-256 of the chunk's bytes.
type Hash [HashSize]byte

// Sum computes the address of a chunk.
func Sum(data []byte) Hash { return sha256.Sum256(data) }

// String renders the address as lowercase hex.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// ParseHash decodes a 64-character hex address.
func ParseHash(s string) (Hash, error) {
	var h Hash
	if len(s) != 2*HashSize {
		return h, fmt.Errorf("blobstore: bad hash length %d", len(s))
	}
	if _, err := hex.Decode(h[:], []byte(s)); err != nil {
		return h, fmt.Errorf("blobstore: bad hash: %w", err)
	}
	return h, nil
}

// ErrNotFound reports that no chunk with the requested address is stored.
var ErrNotFound = errors.New("blobstore: chunk not found")

// ErrCorrupt reports that stored bytes no longer match their address.
var ErrCorrupt = errors.New("blobstore: chunk bytes do not match their hash")

// BackendStats counts what a backend holds.
type BackendStats struct {
	Chunks int
	Bytes  int64
}

// Backend is the durable tier under a Store. Implementations must be safe
// for concurrent use. Get may return a slice the caller must treat as
// read-only.
type Backend interface {
	// Put stores a chunk, reporting whether it was new (false = dedup hit).
	Put(h Hash, data []byte) (added bool, err error)
	Get(h Hash) ([]byte, error)
	Has(h Hash) (bool, error)
	Remove(h Hash) error
	Stats() BackendStats
}

// --- in-memory backend ------------------------------------------------------

// Memory is a map-backed Backend. Put copies, so callers may hand it
// slices of larger buffers without pinning them.
type Memory struct {
	mu    sync.RWMutex
	m     map[Hash][]byte
	bytes int64
}

// NewMemory creates an empty in-memory backend.
func NewMemory() *Memory { return &Memory{m: map[Hash][]byte{}} }

// Put implements Backend.
func (b *Memory) Put(h Hash, data []byte) (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.m[h]; ok {
		return false, nil
	}
	b.m[h] = append([]byte(nil), data...)
	b.bytes += int64(len(data))
	return true, nil
}

// Get implements Backend.
func (b *Memory) Get(h Hash) ([]byte, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	data, ok := b.m[h]
	if !ok {
		return nil, ErrNotFound
	}
	return data, nil
}

// Has implements Backend.
func (b *Memory) Has(h Hash) (bool, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	_, ok := b.m[h]
	return ok, nil
}

// Remove implements Backend.
func (b *Memory) Remove(h Hash) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if data, ok := b.m[h]; ok {
		b.bytes -= int64(len(data))
		delete(b.m, h)
	}
	return nil
}

// Stats implements Backend.
func (b *Memory) Stats() BackendStats {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return BackendStats{Chunks: len(b.m), Bytes: b.bytes}
}

// --- on-disk backend --------------------------------------------------------

// Disk stores each chunk as a file named by its hex address, fanned out
// over 256 prefix directories (ab/abcdef...). Writes go through a temp
// file and rename, so a crash never leaves a half-written chunk under a
// valid address.
type Disk struct {
	dir string

	mu     sync.Mutex
	chunks int
	bytes  int64
}

// NewDisk opens (creating if needed) an on-disk backend rooted at dir and
// scans it so Stats reflects chunks left by previous runs.
func NewDisk(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("blobstore: %w", err)
	}
	b := &Disk{dir: dir}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || len(d.Name()) != 2*HashSize {
			return err
		}
		if info, err := d.Info(); err == nil {
			b.chunks++
			b.bytes += info.Size()
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("blobstore: scanning %s: %w", dir, err)
	}
	return b, nil
}

func (b *Disk) path(h Hash) string {
	name := h.String()
	return filepath.Join(b.dir, name[:2], name)
}

// Put implements Backend. The whole check-write-rename sequence runs
// under the lock: two concurrent Puts of the same chunk must resolve to
// one addition, or the counters drift from the files (writes happen at
// publish time, so serializing them costs nothing that matters).
//
// Put is crash-consistent: the chunk is synced before the rename makes it
// visible, and the shard directory (and the store root, when the shard is
// new) after it, so an acknowledged chunk survives a power cut and a torn
// write never appears under a chunk's name. A failed sync removes what was
// written and returns the error.
func (b *Disk) Put(h Hash, data []byte) (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	path := b.path(h)
	if _, err := os.Stat(path); err == nil {
		return false, nil
	}
	shard := filepath.Dir(path)
	err := os.Mkdir(shard, 0o755)
	newShard := err == nil
	if err != nil && !errors.Is(err, os.ErrExist) {
		return false, fmt.Errorf("blobstore: %w", err)
	}
	tmp, err := os.CreateTemp(shard, ".tmp-*")
	if err != nil {
		return false, fmt.Errorf("blobstore: %w", err)
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Sync()
	}
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return false, fmt.Errorf("blobstore: %w", werr)
	}
	derr := syncDir(shard)
	if derr == nil && newShard {
		derr = syncDir(b.dir)
	}
	if derr != nil {
		// Not durable, so not stored: drop the file to keep the counters
		// equal to what a reopen would count.
		os.Remove(path)
		return false, derr
	}
	b.chunks++
	b.bytes += int64(len(data))
	return true, nil
}

// syncDir makes the directory's entries durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("blobstore: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("blobstore: syncing %s: %w", dir, err)
	}
	return nil
}

// Get implements Backend.
func (b *Disk) Get(h Hash) ([]byte, error) {
	data, err := os.ReadFile(b.path(h))
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, fmt.Errorf("blobstore: %w", err)
	}
	return data, nil
}

// Has implements Backend.
func (b *Disk) Has(h Hash) (bool, error) {
	_, err := os.Stat(b.path(h))
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("blobstore: %w", err)
	}
	return true, nil
}

// Remove implements Backend.
func (b *Disk) Remove(h Hash) error {
	info, err := os.Stat(b.path(h))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("blobstore: %w", err)
	}
	if err := os.Remove(b.path(h)); err != nil {
		return fmt.Errorf("blobstore: %w", err)
	}
	b.mu.Lock()
	b.chunks--
	b.bytes -= info.Size()
	b.mu.Unlock()
	return nil
}

// Stats implements Backend.
func (b *Disk) Stats() BackendStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BackendStats{Chunks: b.chunks, Bytes: b.bytes}
}

// --- store (backend + hot tier) ---------------------------------------------

// DefaultCacheBytes is the hot-tier budget when Options.CacheBytes is 0.
const DefaultCacheBytes = 64 << 20

const defaultShards = 16

// Options configures a Store.
type Options struct {
	// Backend is the durable tier. nil makes the store cache-only: Put
	// inserts into the LRU tier (evictable), Get misses report ErrNotFound
	// — the client-side chunk cache shape, where any chunk can be
	// refetched by hash.
	Backend Backend
	// CacheBytes budgets the hot tier (0 = DefaultCacheBytes, negative =
	// no hot tier; a cache-only store rejects a negative budget).
	CacheBytes int64
	// Shards stripes the hot tier's locks (default 16).
	Shards int
}

// entry is one resident hot chunk on its shard's intrusive LRU list.
type entry struct {
	hash       Hash
	data       []byte
	prev, next *entry
}

// cacheShard is one stripe of the hot tier: its own lock, map and LRU
// list, so concurrent readers of different chunks do not serialize.
type cacheShard struct {
	mu    sync.Mutex
	m     map[Hash]*entry
	head  *entry // most recently used
	tail  *entry // eviction candidate
	bytes int64
}

// Store is a content-addressed chunk store with a hot-chunk cache tier.
// All methods are safe for concurrent use.
type Store struct {
	backend  Backend
	shards   []cacheShard
	perShard int64 // cache budget per shard; <=0 disables the hot tier

	hits        atomic.Int64
	misses      atomic.Int64
	evictions   atomic.Int64
	bytesServed atomic.Int64
	dedupHits   atomic.Int64

	// getHot/getCold are the chunk-get latency histograms. The hot tier
	// serves in tens of nanoseconds, so timing every hit would dominate
	// the path being measured; hotSample admits one hit in 64 (the
	// histogram is a sampled distribution, the hits counter stays exact).
	// Cold gets pay backend I/O and are always timed.
	getHot    *obs.Histogram
	getCold   *obs.Histogram
	hotSample *obs.Sampler
}

// New builds a Store.
func New(o Options) (*Store, error) {
	if o.CacheBytes == 0 {
		o.CacheBytes = DefaultCacheBytes
	}
	if o.Shards <= 0 {
		o.Shards = defaultShards
	}
	if o.Backend == nil && o.CacheBytes < 0 {
		return nil, errors.New("blobstore: cache-only store needs a cache budget")
	}
	s := &Store{
		backend:   o.Backend,
		shards:    make([]cacheShard, o.Shards),
		perShard:  o.CacheBytes / int64(o.Shards),
		getHot:    obs.NewHistogram(obs.LatencyBounds),
		getCold:   obs.NewHistogram(obs.LatencyBounds),
		hotSample: obs.NewSampler(64),
	}
	if o.CacheBytes > 0 && s.perShard == 0 {
		s.perShard = 1 // tiny budgets still cache the newest chunk per shard
	}
	for i := range s.shards {
		s.shards[i].m = map[Hash]*entry{}
	}
	return s, nil
}

// NewCache builds a cache-only store (the client-side shape).
func NewCache(budget int64) *Store {
	s, err := New(Options{CacheBytes: budget})
	if err != nil {
		panic(err) // unreachable: budget 0 defaults, negative rejected above
	}
	return s
}

func (s *Store) shardFor(h Hash) *cacheShard {
	return &s.shards[int(h[0])%len(s.shards)]
}

// unlink removes e from the LRU list; sh.mu must be held.
func (sh *cacheShard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushFront makes e the most recently used; sh.mu must be held.
func (sh *cacheShard) pushFront(e *entry) {
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

// insert caches a chunk and evicts LRU entries past the budget, sparing
// the chunk just inserted (an oversized chunk may transiently overflow
// the shard rather than thrash). sh.mu must be held.
func (s *Store) insert(sh *cacheShard, h Hash, data []byte) {
	if _, ok := sh.m[h]; ok {
		return
	}
	e := &entry{hash: h, data: data}
	sh.m[h] = e
	sh.pushFront(e)
	sh.bytes += int64(len(data))
	for sh.bytes > s.perShard && sh.tail != nil && sh.tail != e {
		victim := sh.tail
		sh.unlink(victim)
		delete(sh.m, victim.hash)
		sh.bytes -= int64(len(victim.data))
		s.evictions.Add(1)
	}
}

// Put stores a chunk under its own hash and reports the address and
// whether the chunk was new to the store.
func (s *Store) Put(data []byte) (Hash, bool, error) {
	h := Sum(data)
	if s.backend == nil {
		sh := s.shardFor(h)
		sh.mu.Lock()
		_, dup := sh.m[h]
		if !dup {
			s.insert(sh, h, append([]byte(nil), data...))
		}
		sh.mu.Unlock()
		if dup {
			s.dedupHits.Add(1)
		}
		return h, !dup, nil
	}
	added, err := s.backend.Put(h, data)
	if err != nil {
		return h, false, err
	}
	if !added {
		s.dedupHits.Add(1)
	}
	return h, added, nil
}

// Get returns a chunk's bytes. The slice is shared and must be treated as
// read-only. Hot-tier hits are allocation-free; backend reads are
// verified against the address before being served (and cached).
func (s *Store) Get(h Hash) ([]byte, error) {
	sh := s.shardFor(h)
	if s.perShard > 0 || s.backend == nil {
		var t0 time.Time
		sampled := s.hotSample.Tick()
		if sampled {
			t0 = time.Now()
		}
		sh.mu.Lock()
		if e, ok := sh.m[h]; ok {
			if sh.head != e {
				sh.unlink(e)
				sh.pushFront(e)
			}
			sh.mu.Unlock()
			s.hits.Add(1)
			s.bytesServed.Add(int64(len(e.data)))
			if sampled {
				s.getHot.ObserveSince(t0)
			}
			return e.data, nil
		}
		sh.mu.Unlock()
	}
	s.misses.Add(1)
	if s.backend == nil {
		return nil, ErrNotFound
	}
	t0 := time.Now()
	data, err := s.backend.Get(h)
	if err != nil {
		return nil, err
	}
	if Sum(data) != h {
		return nil, fmt.Errorf("%w: %s", ErrCorrupt, h)
	}
	if s.perShard > 0 {
		sh.mu.Lock()
		s.insert(sh, h, data)
		sh.mu.Unlock()
	}
	s.bytesServed.Add(int64(len(data)))
	s.getCold.ObserveSince(t0)
	return data, nil
}

// Has reports whether the store holds a chunk.
func (s *Store) Has(h Hash) bool {
	sh := s.shardFor(h)
	sh.mu.Lock()
	_, ok := sh.m[h]
	sh.mu.Unlock()
	if ok {
		return true
	}
	if s.backend == nil {
		return false
	}
	ok, err := s.backend.Has(h)
	return err == nil && ok
}

// Remove drops a chunk from the hot tier and the backend.
func (s *Store) Remove(h Hash) error {
	sh := s.shardFor(h)
	sh.mu.Lock()
	if e, ok := sh.m[h]; ok {
		sh.unlink(e)
		delete(sh.m, h)
		sh.bytes -= int64(len(e.data))
	}
	sh.mu.Unlock()
	if s.backend == nil {
		return nil
	}
	return s.backend.Remove(h)
}

// Register exposes the store's counters and chunk-get latency histograms
// on a metrics registry. All exported counters are monotonic; the chunk
// and byte totals are gauges (they shrink when chunks are removed). The
// hot-tier histogram is a 1-in-64 sampled distribution — see the field
// comment — while the hits/misses counters remain exact.
func (s *Store) Register(reg *obs.Registry) {
	reg.CounterFunc("blobstore_hits_total", "chunk gets served from the hot tier", s.hits.Load)
	reg.CounterFunc("blobstore_misses_total", "chunk gets that fell through the hot tier", s.misses.Load)
	reg.CounterFunc("blobstore_evictions_total", "hot-tier LRU evictions", s.evictions.Load)
	reg.CounterFunc("blobstore_dedup_hits_total", "puts of chunks the store already held", s.dedupHits.Load)
	reg.CounterFunc("blobstore_bytes_served_total", "chunk bytes handed to readers", s.bytesServed.Load)
	reg.GaugeFunc("blobstore_chunks", "chunks resident in the durable tier", func() int64 { return int64(s.Stats().Chunks) })
	reg.GaugeFunc("blobstore_stored_bytes", "bytes resident in the durable tier", func() int64 { return s.Stats().StoredBytes })
	reg.GaugeFunc("blobstore_cache_bytes", "bytes resident in the hot tier", func() int64 { return s.Stats().CacheBytes })
	reg.RegisterHistogram("blobstore_get_seconds", "chunk get latency by tier (hot is 1/64 sampled)", "seconds", s.getHot, obs.L("tier", "hot"))
	reg.RegisterHistogram("blobstore_get_seconds", "chunk get latency by tier (hot is 1/64 sampled)", "seconds", s.getCold, obs.L("tier", "cold"))
}

// Stats is a counter snapshot of a Store.
type Stats struct {
	Chunks      int   // chunks in the durable tier (hot tier if cache-only)
	StoredBytes int64 // bytes in the durable tier (hot tier if cache-only)
	CacheChunks int
	CacheBytes  int64
	Hits        int64 // gets served from the hot tier
	Misses      int64 // gets that fell through (or missed entirely)
	Evictions   int64 // hot-tier LRU evictions
	BytesServed int64
	DedupHits   int64 // puts of chunks already stored
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	st := Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Evictions:   s.evictions.Load(),
		BytesServed: s.bytesServed.Load(),
		DedupHits:   s.dedupHits.Load(),
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		st.CacheChunks += len(sh.m)
		st.CacheBytes += sh.bytes
		sh.mu.Unlock()
	}
	if s.backend != nil {
		bs := s.backend.Stats()
		st.Chunks, st.StoredBytes = bs.Chunks, bs.Bytes
	} else {
		st.Chunks, st.StoredBytes = st.CacheChunks, st.CacheBytes
	}
	return st
}

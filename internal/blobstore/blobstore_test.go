package blobstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func chunk(i, size int) []byte {
	data := make([]byte, size)
	for j := range data {
		data[j] = byte(i + j*7)
	}
	data[0] = byte(i)
	data[1] = byte(i >> 8)
	return data
}

func TestHashRoundTrip(t *testing.T) {
	h := Sum([]byte("hello"))
	parsed, err := ParseHash(h.String())
	if err != nil {
		t.Fatal(err)
	}
	if parsed != h {
		t.Fatal("parse(string(h)) != h")
	}
	if _, err := ParseHash("short"); err == nil {
		t.Error("short hash accepted")
	}
	if _, err := ParseHash(string(make([]byte, 64))); err == nil {
		t.Error("non-hex hash accepted")
	}
}

func testBackend(t *testing.T, b Backend) {
	t.Helper()
	data := []byte("the chunk payload")
	h := Sum(data)
	if ok, _ := b.Has(h); ok {
		t.Fatal("empty backend has chunk")
	}
	if _, err := b.Get(h); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get on empty = %v, want ErrNotFound", err)
	}
	added, err := b.Put(h, data)
	if err != nil || !added {
		t.Fatalf("first Put = (%v, %v)", added, err)
	}
	added, err = b.Put(h, data)
	if err != nil || added {
		t.Fatalf("duplicate Put = (%v, %v), want dedup", added, err)
	}
	got, err := b.Get(h)
	if err != nil || string(got) != string(data) {
		t.Fatalf("Get = (%q, %v)", got, err)
	}
	if st := b.Stats(); st.Chunks != 1 || st.Bytes != int64(len(data)) {
		t.Errorf("stats = %+v", st)
	}
	if err := b.Remove(h); err != nil {
		t.Fatal(err)
	}
	if ok, _ := b.Has(h); ok {
		t.Error("removed chunk still present")
	}
	if st := b.Stats(); st.Chunks != 0 || st.Bytes != 0 {
		t.Errorf("stats after remove = %+v", st)
	}
	if err := b.Remove(h); err != nil {
		t.Errorf("double remove: %v", err)
	}
}

func TestMemoryBackend(t *testing.T) { testBackend(t, NewMemory()) }

func TestDiskBackend(t *testing.T) {
	b, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	testBackend(t, b)
}

func TestMemoryPutCopies(t *testing.T) {
	b := NewMemory()
	data := []byte("mutated later")
	h := Sum(data)
	b.Put(h, data)
	data[0] = 'X'
	got, _ := b.Get(h)
	if Sum(got) != h {
		t.Fatal("backend aliases the caller's buffer")
	}
}

func TestDiskSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	b, _ := NewDisk(dir)
	data := chunk(1, 100)
	h := Sum(data)
	if _, err := b.Put(h, data); err != nil {
		t.Fatal(err)
	}
	re, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := re.Stats(); st.Chunks != 1 || st.Bytes != 100 {
		t.Errorf("reopened stats = %+v", st)
	}
	got, err := re.Get(h)
	if err != nil || Sum(got) != h {
		t.Fatalf("reopened Get = %v", err)
	}
}

func TestDiskPutReopenKeepsCountersAndDedup(t *testing.T) {
	dir := t.TempDir()
	b, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	var hashes []Hash
	var total int64
	for i := 0; i < 20; i++ {
		data := chunk(i, 50+i)
		h := Sum(data)
		if added, err := b.Put(h, data); err != nil || !added {
			t.Fatalf("Put %d = %v, %v", i, added, err)
		}
		hashes = append(hashes, h)
		total += int64(len(data))
	}
	want := BackendStats{Chunks: 20, Bytes: total}
	re, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := re.Stats(); st != want {
		t.Fatalf("reopened stats = %+v, want %+v", st, want)
	}
	for i, h := range hashes {
		if added, err := re.Put(h, chunk(i, 50+i)); err != nil || added {
			t.Fatalf("re-Put %d after reopen = %v, %v; want a dedup hit", i, added, err)
		}
	}
	if st := re.Stats(); st != want {
		t.Fatalf("stats after dedup hits = %+v, want %+v", st, want)
	}
	// Every write was renamed into place: no temp file is left behind.
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && strings.HasPrefix(d.Name(), ".tmp-") {
			t.Errorf("leftover temp file %s", path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStoreVerifiesBackendReads(t *testing.T) {
	dir := t.TempDir()
	b, _ := NewDisk(dir)
	s, err := New(Options{Backend: b, CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := s.Put(chunk(3, 64))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one stored byte behind the store's back.
	path := filepath.Join(dir, h.String()[:2], h.String())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[10] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(h); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tampered chunk served: %v", err)
	}
}

func TestStoreHotTier(t *testing.T) {
	s, err := New(Options{Backend: NewMemory(), CacheBytes: 1 << 20, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	data := chunk(9, 256)
	h, added, err := s.Put(data)
	if err != nil || !added {
		t.Fatalf("Put = (%v, %v)", added, err)
	}
	if _, _, err := s.Put(data); err != nil {
		t.Fatal(err)
	}
	// First get misses the hot tier, second hits.
	if _, err := s.Get(h); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(h); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.DedupHits != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.BytesServed != 512 {
		t.Errorf("bytes served = %d", st.BytesServed)
	}
	if st.CacheChunks != 1 {
		t.Errorf("cache chunks = %d", st.CacheChunks)
	}
}

func TestLRUEviction(t *testing.T) {
	// One shard, room for ~4 of 10 chunks: older chunks must be evicted,
	// recently used ones retained.
	s, err := New(Options{Backend: NewMemory(), CacheBytes: 1024, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	var hashes []Hash
	for i := 0; i < 10; i++ {
		h, _, err := s.Put(chunk(i, 256))
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, h)
		if _, err := s.Get(h); err != nil { // warm the tier
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.CacheBytes > 1024 {
		t.Errorf("cache bytes %d over budget", st.CacheBytes)
	}
	if st.Evictions == 0 {
		t.Error("no evictions under pressure")
	}
	// The most recent chunk is hot; the first one fell out but is still
	// durable in the backend.
	before := s.Stats().Hits
	if _, err := s.Get(hashes[9]); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Hits != before+1 {
		t.Error("most recent chunk not served from hot tier")
	}
	if _, err := s.Get(hashes[0]); err != nil {
		t.Fatalf("evicted chunk lost from backend: %v", err)
	}
}

func TestLRUKeepsRecentlyUsed(t *testing.T) {
	s, err := New(Options{Backend: NewMemory(), CacheBytes: 1024, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	first, _, _ := s.Put(chunk(0, 256))
	s.Get(first)
	for i := 1; i < 8; i++ {
		h, _, _ := s.Put(chunk(i, 256))
		s.Get(h)
		s.Get(first) // keep the first chunk hot
	}
	before := s.Stats().Hits
	s.Get(first)
	if s.Stats().Hits != before+1 {
		t.Error("repeatedly-touched chunk was evicted")
	}
}

func TestCacheOnlyStore(t *testing.T) {
	s, err0 := New(Options{CacheBytes: 1024, Shards: 1})
	if err0 != nil {
		t.Fatal(err0)
	}
	data := chunk(5, 300)
	h, added, err := s.Put(data)
	if err != nil || !added {
		t.Fatalf("Put = (%v, %v)", added, err)
	}
	if _, _, err := s.Put(data); err != nil {
		t.Fatal(err)
	}
	if s.Stats().DedupHits != 1 {
		t.Error("no dedup hit on duplicate put")
	}
	got, err := s.Get(h)
	if err != nil || Sum(got) != h {
		t.Fatalf("Get = %v", err)
	}
	if !s.Has(h) {
		t.Error("Has = false for stored chunk")
	}
	// Fill past the budget: the early chunk is evicted and Get reports
	// ErrNotFound (refetchable by the caller).
	for i := 10; i < 20; i++ {
		s.Put(chunk(i, 300))
	}
	missing := 0
	if _, err := s.Get(h); errors.Is(err, ErrNotFound) {
		missing++
	}
	if st := s.Stats(); st.StoredBytes > 1024 {
		t.Errorf("cache-only store holds %d bytes over budget", st.StoredBytes)
	}
	if err := s.Remove(h); err != nil {
		t.Fatal(err)
	}
	if s.Has(h) {
		t.Error("removed chunk still present")
	}
}

func TestOversizedChunkDoesNotThrash(t *testing.T) {
	s := NewCache(64)
	data := chunk(1, 256) // bigger than the whole budget
	h, _, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(h); err != nil {
		t.Fatal("oversized chunk not retained as sole resident")
	}
}

func TestStoreConcurrent(t *testing.T) {
	s, err := New(Options{Backend: NewMemory(), CacheBytes: 32 << 10, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	const chunks = 64
	hashes := make([]Hash, chunks)
	for i := range hashes {
		hashes[i], _, _ = s.Put(chunk(i, 512))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				h := hashes[(g*31+i)%chunks]
				data, err := s.Get(h)
				if err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				if Sum(data) != h {
					t.Error("wrong bytes")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.Hits+st.Misses != 8*400 {
		t.Errorf("hits %d + misses %d != %d", st.Hits, st.Misses, 8*400)
	}
}

func TestGetHotZeroAllocs(t *testing.T) {
	s, err := New(Options{Backend: NewMemory(), CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	h, _, _ := s.Put(chunk(1, 4096))
	if _, err := s.Get(h); err != nil { // warm
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.Get(h); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("hot Get allocates %v times per op, want 0", allocs)
	}
}

func TestStatsString(t *testing.T) {
	// Ensure Stats is printable in experiment tables without surprises.
	s := NewCache(0) // 0 → default budget
	s.Put([]byte("x"))
	if got := fmt.Sprintf("%+v", s.Stats()); got == "" {
		t.Fatal("empty stats")
	}
}

package main

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/blobstore"
	"repro/internal/content"
	"repro/internal/faultnet"
	"repro/internal/gamepack"
	"repro/internal/media/studio"
	"repro/internal/netstream"
	"repro/internal/obs"
	"repro/internal/playsvc"
	"repro/internal/telemetry"
)

// Flag defaults of cmd/vgbl-server, restated: the benchmark runs the
// program as it ships, not tuned for the benchmark.
const (
	ingestWorkers   = 8
	ingestQueue     = 512
	ingestIdle      = 30 * time.Minute
	playShards      = 32
	playTTL         = 10 * time.Minute
	playMaxSessions = 16384
	checkpointEvery = 30 * time.Second
	// gatewayFanIn and gatewayTimeout restate the pool NewGateway builds
	// when ClusterOptions.HTTP is nil; the benchmark supplies the same
	// pool wrapped in hopTransport.
	gatewayFanIn   = 128
	gatewayTimeout = 30 * time.Second
)

// studioOpts is the recording profile vgbl-server publishes demo courses with.
var studioOpts = studio.Options{QStep: 8}

// course is one published demo course and its current revision.
type course struct {
	name   string
	c      *content.Course
	blob   []byte
	man    *gamepack.Manifest
	chunks map[blobstore.Hash]bool
}

// stack is the program brought up in-process the way vgbl-server does:
// one chunk store behind the package server and the play service, the
// telemetry ingest service and one metrics registry, all on one loopback
// listener; the play surface is either one manager or, with nodes > 0, a
// gateway over that many nodes.
type stack struct {
	url   string
	store *blobstore.Store
	srv   *netstream.Server
	svc   *telemetry.Service
	reg   *obs.Registry

	mgr     *playsvc.Manager
	cluster *playsvc.Cluster
	nodes   []*playsvc.ClusterNode
	hop     *hopTransport

	courses []*course
	http    *http.Server
}

// demoCourses lists the bundled courses in publish order.
func demoCourses() []*course {
	return []*course{
		{name: "classroom", c: content.Classroom()},
		{name: "museum", c: content.Museum()},
		{name: "street", c: content.StreetDemo()},
	}
}

// startStack brings the program up with nodes play nodes (0 = single manager).
func startStack(nodes int) (s *stack, err error) {
	store, err := blobstore.New(blobstore.Options{Backend: blobstore.NewMemory(), CacheBytes: blobstore.DefaultCacheBytes})
	if err != nil {
		return nil, err
	}
	s = &stack{store: store, srv: netstream.NewServerWith(store), reg: obs.NewRegistry("vgbl")}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	store.Register(s.reg)
	s.srv.Register(s.reg)
	nodeOpts := playsvc.Options{
		Shards:          playShards,
		TTL:             playTTL,
		MaxSessions:     playMaxSessions,
		Store:           store,
		Dir:             playsvc.NewMemDir(),
		CheckpointEvery: checkpointEvery,
	}
	var playHandler, traceHandler http.Handler
	var addManifest func(name string, man *gamepack.Manifest) error
	if nodes > 0 {
		s.hop = &hopTransport{base: faultnet.NewHTTPTransport(gatewayFanIn)}
		s.cluster, err = playsvc.NewCluster(playsvc.ClusterOptions{
			Store: store,
			Dir:   nodeOpts.Dir,
			Node:  nodeOpts,
			HTTP:  &http.Client{Transport: s.hop, Timeout: gatewayTimeout},
		})
		if err != nil {
			return s, err
		}
		for i := 0; i < nodes; i++ {
			n, err := s.cluster.StartNode()
			if err != nil {
				return s, err
			}
			s.nodes = append(s.nodes, n)
		}
		s.cluster.Gateway().Register(s.reg)
		playHandler = s.cluster.Gateway().Handler()
		traceHandler = s.cluster.Gateway().Ring().Handler()
		addManifest = s.cluster.AddManifest
	} else {
		s.mgr = playsvc.NewManager(nodeOpts)
		s.mgr.Register(s.reg)
		playHandler = s.mgr.Handler()
		traceHandler = s.mgr.Ring().Handler()
		addManifest = s.mgr.AddCourseFromManifest
	}
	s.courses = demoCourses()
	for _, c := range s.courses {
		video, err := c.c.RecordVideo(studioOpts)
		if err != nil {
			return s, err
		}
		if err := c.publish(video, s.store); err != nil {
			return s, err
		}
		if err := s.srv.AddManifest(c.name, c.man); err != nil {
			return s, err
		}
		if err := addManifest(c.name, c.man); err != nil {
			return s, err
		}
	}
	s.srv.AddResource("umbrella", "UMBRELLAS: PORTABLE RAIN PROTECTION SINCE 1000 BC")
	s.srv.AddResource("ram", "RAM MODULES MUST MATCH THE BOARD'S SOCKET TYPE")

	s.svc = telemetry.NewService(telemetry.Options{Workers: ingestWorkers, QueueDepth: ingestQueue, IdleTimeout: ingestIdle})
	s.svc.Register(s.reg)
	h := s.svc.Handler()
	for _, m := range []struct {
		pattern string
		h       http.Handler
	}{
		{"/telemetry/", h},
		{telemetry.HealthPath, h},
		{"/play/", playHandler},
		{"/room/", playHandler},
		{"/metrics", s.reg.Handler()},
		{"/debug/traces", traceHandler},
	} {
		if err := s.srv.Mount(m.pattern, m.h); err != nil {
			return s, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return s, err
	}
	s.url = "http://" + ln.Addr().String()
	s.http = &http.Server{Handler: s.srv}
	go s.http.Serve(ln)
	return s, nil
}

// publish builds the package around a recorded video and deposits it.
func (c *course) publish(video []byte, store *blobstore.Store) error {
	blob, err := gamepack.Build(c.c.Project, video)
	if err != nil {
		return err
	}
	man, err := gamepack.DepositChunks(blob, store)
	if err != nil {
		return err
	}
	c.setRevision(blob, man)
	return nil
}

func (c *course) setRevision(blob []byte, man *gamepack.Manifest) {
	c.blob, c.man = blob, man
	c.chunks = map[blobstore.Hash]bool{}
	for h := range man.ChunkSet() {
		c.chunks[h] = true
	}
}

func (s *stack) course(name string) *course {
	for _, c := range s.courses {
		if c.name == name {
			return c
		}
	}
	return nil
}

// managers returns every play manager serving the stack.
func (s *stack) managers() []*playsvc.Manager {
	if s.mgr != nil {
		return []*playsvc.Manager{s.mgr}
	}
	var out []*playsvc.Manager
	for _, n := range s.nodes {
		out = append(out, n.Manager)
	}
	return out
}

// playStats sums Manager.Snapshot over every manager.
func (s *stack) playStats() playsvc.Stats {
	var st playsvc.Stats
	for _, m := range s.managers() {
		st.Merge(m.Snapshot())
	}
	return st
}

// scrape reads the named histograms from every play node's /metrics
// (the single-node shape serves them on the front listener) and sums them.
func (s *stack) scrape(names ...string) (map[string]obs.HistogramSnapshot, error) {
	urls := []string{s.url}
	if s.cluster != nil {
		urls = urls[:0]
		for _, n := range s.nodes {
			urls = append(urls, n.URL)
		}
	}
	out := map[string]obs.HistogramSnapshot{}
	for _, u := range urls {
		var snap obs.RegistrySnapshot
		if err := getJSON(u+"/metrics?format=json", &snap); err != nil {
			return nil, err
		}
		for _, name := range names {
			m := snap.Metric(name)
			if m == nil || len(m.Series) == 0 || m.Series[0].Histogram == nil {
				return nil, fmt.Errorf("%s missing from %s/metrics", name, u)
			}
			h := out[name]
			h.Sum += m.Series[0].Histogram.Sum
			h.Count += m.Series[0].Histogram.Count
			out[name] = h
		}
	}
	return out, nil
}

func (s *stack) close() {
	if s.http != nil {
		s.http.Close()
	}
	if s.cluster != nil {
		s.cluster.Close()
	}
	if s.mgr != nil {
		s.mgr.Close()
	}
	if s.svc != nil {
		s.svc.Close()
	}
}

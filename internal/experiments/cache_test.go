package experiments

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gscalar"
)

func TestCacheHitMissAccounting(t *testing.T) {
	c := NewCache()
	if _, ok := c.get("a"); ok {
		t.Fatal("empty cache returned a value")
	}
	c.put("a", 1)
	if v, ok := c.get("a"); !ok || v.(int) != 1 {
		t.Fatalf("get(a) = %v, %v", v, ok)
	}
	if _, ok := c.get("b"); ok {
		t.Fatal("get(b) hit")
	}
	hits, misses := c.Counters()
	if hits != 1 || misses != 2 {
		t.Errorf("counters = %d hits, %d misses; want 1, 2", hits, misses)
	}
	if c.Len() != 1 {
		t.Errorf("len = %d", c.Len())
	}
}

// TestConfigKeyInvalidation checks that every semantically meaningful
// configuration change yields a distinct key — a changed config can never
// be served a stale result — while the worker count (which never changes
// results within one loop algorithm) is normalised so those entries are
// shared.
func TestConfigKeyInvalidation(t *testing.T) {
	base := configKey(gscalar.DefaultConfig(), 1)

	mutations := map[string]func(*gscalar.Config){
		"NumSMs":      func(c *gscalar.Config) { c.NumSMs = 7 },
		"L1Bytes":     func(c *gscalar.Config) { c.L1Bytes = 32 << 10 },
		"L2Bytes":     func(c *gscalar.Config) { c.L2Bytes = 256 << 10 },
		"MemChannels": func(c *gscalar.Config) { c.MemChannels = 2 },
		"WarpSize":    func(c *gscalar.Config) { c.WarpSize = 64 },
		"MaxCycles":   func(c *gscalar.Config) { c.MaxCycles = 5 },
	}
	for name, mutate := range mutations {
		cfg := gscalar.DefaultConfig()
		mutate(&cfg)
		if k := configKey(cfg, 1); k == base {
			t.Errorf("changing %s did not change the cache key", name)
		}
	}
	if k := configKey(gscalar.DefaultConfig(), 2); k == base {
		t.Error("changing scale did not change the cache key")
	}

	// Workers is cleared: serial never has workers, and relaxed results do
	// not depend on the worker count, so every count shares the relaxed
	// key — which still differs from the serial one.
	relaxed := func(n int) string {
		cfg := gscalar.DefaultConfig()
		cfg.Relaxed = true
		cfg.Workers = n
		return configKey(cfg, 1)
	}
	if relaxed(0) != relaxed(1) || relaxed(1) != relaxed(8) || relaxed(1) != relaxed(-1) {
		t.Error("relaxed worker counts should share one cache key")
	}
	if relaxed(1) == base {
		t.Error("relaxed and serial loops must not share a cache key")
	}
	if !strings.Contains(base, "scale=1") {
		t.Errorf("key %q lacks the scale component", base)
	}
	if !strings.HasPrefix(base, gscalar.DefaultConfig().Hash()) {
		t.Errorf("key %q is not prefixed by the config content hash", base)
	}

	// The key hashes the normalized config: a sparse config denotes "Table 1
	// with these changes" and must share the entry of its explicit form.
	sparse := gscalar.Config{NumSMs: 7}
	explicit := gscalar.DefaultConfig()
	explicit.NumSMs = 7
	if configKey(sparse, 1) != configKey(explicit, 1) {
		t.Error("sparse config and its normalized equivalent should share a cache key")
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCache()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := string(rune('a' + (g+i)%4))
				if _, ok := c.get(key); !ok {
					c.put(key, g)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() != 4 {
		t.Errorf("len = %d, want 4", c.Len())
	}
	hits, misses := c.Counters()
	if hits+misses != 800 {
		t.Errorf("hits+misses = %d, want 800", hits+misses)
	}
}

// TestCacheDoSingleflight asserts the in-flight dedup contract at the unit
// level: concurrent Do calls of one key run fn exactly once, the joined
// waiters count as hits (not second misses), and distinct keys stay
// independent.
func TestCacheDoSingleflight(t *testing.T) {
	c := NewCache()
	keys := []string{"k0", "k1"}
	runs := map[string]*atomic.Int32{}
	gate := make(chan struct{})
	for _, k := range keys {
		runs[k] = &atomic.Int32{}
	}
	const callersPerKey = 8
	var wg sync.WaitGroup
	for _, key := range keys {
		for i := 0; i < callersPerKey; i++ {
			wg.Add(1)
			go func(key string) {
				defer wg.Done()
				<-gate
				v, err := c.Do(context.Background(), key, func() (any, error) {
					runs[key].Add(1)
					return "v:" + key, nil
				})
				if err != nil || v != "v:"+key {
					t.Errorf("Do(%s) = %v, %v", key, v, err)
				}
			}(key)
		}
	}
	close(gate)
	wg.Wait()
	for _, k := range keys {
		if n := runs[k].Load(); n != 1 {
			t.Errorf("key %s: fn ran %d times, want exactly 1", k, n)
		}
	}
	hits, misses := c.Counters()
	if misses != uint64(len(keys)) {
		t.Errorf("misses = %d, want %d (one per distinct key)", misses, len(keys))
	}
	if hits != uint64(len(keys)*(callersPerKey-1)) {
		t.Errorf("hits = %d, want %d (every joined or late caller)", hits, len(keys)*(callersPerKey-1))
	}
	if c.Len() != len(keys) {
		t.Errorf("Len = %d, want %d", c.Len(), len(keys))
	}
}

// TestCacheDoErrorNotCached: a failed computation must poison nothing — the
// error propagates and a retry runs fresh.
func TestCacheDoErrorNotCached(t *testing.T) {
	c := NewCache()
	boom := errors.New("boom")
	if _, err := c.Do(context.Background(), "k", func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if c.Len() != 0 {
		t.Fatal("error result was cached")
	}
	v, err := c.Do(context.Background(), "k", func() (any, error) { return 42, nil })
	if err != nil || v != 42 {
		t.Fatalf("retry = %v, %v", v, err)
	}
}

// TestPrewarmDedupsConcurrentIdenticalPoints is the satellite bugfix's
// regression test: under Prewarm(..., par>1), workers that miss the same key
// concurrently used to each run the full simulation; with the singleflight
// fold-in, each distinct key simulates exactly once — the misses counter
// counts real simulations — and every duplicate counts as a hit.
func TestPrewarmDedupsConcurrentIdenticalPoints(t *testing.T) {
	cfg := gscalar.DefaultConfig()
	cfg.NumSMs = 2
	s := NewSuite(Options{Config: cfg, Workloads: []string{"HW"}})
	s.r.cache = NewCache()

	// Four copies of the same point dispatched to four workers: all four
	// miss the (empty) cache near-simultaneously.
	p := Point{Arch: gscalar.GScalar, Abbr: "HW"}
	points := []Point{p, p, p, p}
	if err := s.Prewarm(points, len(points)); err != nil {
		t.Fatal(err)
	}
	hits, misses := s.r.cache.Counters()
	if misses != 1 {
		t.Errorf("misses (= simulations) = %d, want exactly 1 for one distinct key", misses)
	}
	if hits != uint64(len(points)-1) {
		t.Errorf("hits = %d, want %d (joined waiters count as hits)", hits, len(points)-1)
	}
	if s.r.cache.Len() != 1 {
		t.Errorf("cache Len = %d, want 1", s.r.cache.Len())
	}
}

// TestPrewarmMatchesSerial runs the same suite serially and with a
// parallel prewarm and requires identical figure rows — the ordering
// guarantee behind the -parallel flag.
func TestPrewarmMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	cfg := gscalar.DefaultConfig()
	cfg.NumSMs = 2
	opts := Options{Config: cfg, Workloads: []string{"HS", "MQ", "SAD"}}

	serial := NewSuite(opts)
	serial.r.cache = NewCache()
	want, err := serial.Fig11()
	if err != nil {
		t.Fatal(err)
	}

	par := NewSuite(opts)
	par.r.cache = NewCache()
	points, err := par.Points([]string{"fig11"})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4*3 {
		t.Fatalf("fig11 points = %d, want 12", len(points))
	}
	if err := par.Prewarm(points, 4); err != nil {
		t.Fatal(err)
	}
	hitsBefore, misses := par.r.cache.Counters()
	if misses != uint64(len(points)) {
		t.Errorf("prewarm misses = %d, want %d", misses, len(points))
	}
	got, err := par.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if hits, missesAfter := par.r.cache.Counters(); missesAfter != misses {
		t.Errorf("Fig11 after prewarm missed the cache (%d -> %d misses)", misses, missesAfter)
	} else if hits == hitsBefore {
		t.Error("Fig11 after prewarm recorded no cache hits")
	}
	if len(got) != len(want) {
		t.Fatalf("row counts differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d differs:\nserial:  %+v\nparallel: %+v", i, want[i], got[i])
		}
	}
}

func TestPrewarmPropagatesError(t *testing.T) {
	s := NewSuite(Options{Workloads: []string{"NOPE"}})
	s.r.cache = NewCache()
	if err := s.Prewarm([]Point{{gscalar.GScalar, "NOPE"}}, 4); err == nil {
		t.Fatal("expected error for unknown workload")
	}
}

func TestPointsDeduplicates(t *testing.T) {
	s := NewSuite(Options{Workloads: []string{"HS", "MQ"}})
	// fig1 and fig9 both need only the G-Scalar runs; the union must not
	// repeat them.
	pts, err := s.Points([]string{"fig1", "fig9"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %v, want one per workload", pts)
	}
	all, err := s.Points([]string{"all"})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[Point]bool{}
	for _, p := range all {
		if seen[p] {
			t.Fatalf("duplicate point %+v", p)
		}
		seen[p] = true
	}
}

// TestPointsRejectsUnknownExperiment is the satellite bugfix's regression
// test: a typo'd experiment name ("figg11") used to index expArchs to nil
// and silently prewarm nothing; it must instead fail with an error that
// lists the valid names.
func TestPointsRejectsUnknownExperiment(t *testing.T) {
	s := NewSuite(Options{Workloads: []string{"HS"}})
	pts, err := s.Points([]string{"figg11"})
	if err == nil {
		t.Fatalf("Points(figg11) = %v, want error", pts)
	}
	for _, want := range []string{"figg11", "fig11", "table1", "width", "sched"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	// Experiments without prewarmable points (static tables, custom-config
	// sweeps) are still valid names — they just contribute no points.
	for _, name := range []string{"table1", "fig10", "width", "sched", "all"} {
		if !ValidExperiment(name) {
			t.Errorf("ValidExperiment(%q) = false", name)
		}
		if _, err := s.Points([]string{name}); err != nil {
			t.Errorf("Points(%q): %v", name, err)
		}
	}
	if ValidExperiment("figg11") {
		t.Error("ValidExperiment(figg11) = true")
	}
	// Every name in the registry that expArchs covers must stay consistent.
	for name := range expArchs {
		if !ValidExperiment(name) {
			t.Errorf("expArchs name %q missing from the experiment registry", name)
		}
	}
	if len(ExperimentNames()) < len(expArchs) {
		t.Error("registry smaller than expArchs")
	}
}

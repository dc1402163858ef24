package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"gscalar"
	"gscalar/internal/serve"
	"gscalar/internal/store"
)

// nominalServeRound is the host time of one serve-sweep round (set-up, cold
// grid, warm resubmissions) on the reference host.
const nominalServeRound = 1.5

// serveWorkers is the server's worker pool and the client's cold-phase
// concurrency.
const serveWorkers = 2

// warmReps is how often the warm phase resubmits every grid point.
const warmReps = 10

// serveBuiltins are the builtin workloads of the serve grid; small ones, so
// the generated kernels carry most of the cold phase.
var serveBuiltins = []string{"HS", "BP", "SR1", "SR2", "ST"}

// genDials are the fixed dial vectors of the serve grid. Only their seed=
// dial comes from the benchmark seed, so the cost of a point does not
// depend on the seed.
var genDials = []string{
	"occ=0.15",
	"div=0.3,occ=0.15",
	"sfu=0.2,occ=0.1",
	"mem=0.3,coal=0.75,occ=0.1",
	"div=0.5,rs=0.5,r3=0.2,occ=0.1",
	"rs=0.1,r1=0.3,occ=0.2",
}

type gridPoint struct {
	arch     gscalar.Arch
	workload string
	builtin  bool
}

// serveGrid returns the cold grid: every gen: vector and every builtin on
// both suite architectures.
func serveGrid(seed uint64) []gridPoint {
	var g []gridPoint
	for _, a := range suiteArchs {
		for k, d := range genDials {
			g = append(g, gridPoint{a, fmt.Sprintf("gen:%s,seed=%d", d, uint32(seed)+uint32(k)), false})
		}
		for _, b := range serveBuiltins {
			g = append(g, gridPoint{a, b, true})
		}
	}
	return g
}

// pointResult is one point of the server's result view.
type pointResult struct {
	Key     string          `json:"key"`
	Status  string          `json:"status"`
	Cached  bool            `json:"cached"`
	Partial bool            `json:"partial"`
	Result  json.RawMessage `json:"result"`
}

type jobResult struct {
	State    string        `json:"state"`
	Complete bool          `json:"complete"`
	Results  []pointResult `json:"results"`
}

// pointTimeout bounds the wait for one point, so a stuck server fails the
// point instead of hanging the run.
const pointTimeout = 60 * time.Second

// errRejected marks a submission the server refused with 503.
var errRejected = errors.New("submission rejected (503)")

// client is the benchmark's HTTP client of the sweep server.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer
}

// do runs one point: submit, then poll its result until the job completes.
// It returns the point's result view and the submit latency.
func (c *client) do(parent, pid int, p gridPoint) (pointResult, time.Duration, error) {
	body, err := json.Marshal(map[string]string{"arch": p.arch.String(), "workload": p.workload})
	if err != nil {
		return pointResult{}, 0, err
	}
	sp := c.tr.start("serve.submit", parent, pid)
	t := time.Now()
	resp, err := c.hc.Post(c.base+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return pointResult{}, 0, err
	}
	var sub struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	submit := time.Since(t)
	c.tr.end(sp)
	if resp.StatusCode == http.StatusServiceUnavailable {
		return pointResult{}, submit, errRejected
	}
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return pointResult{}, submit, fmt.Errorf("submit %s: status %d: %v", p.workload, resp.StatusCode, err)
	}

	sp = c.tr.start("serve.wait", parent, pid)
	defer c.tr.end(sp)
	pause := 50 * time.Microsecond
	deadline := time.Now().Add(pointTimeout)
	for {
		var jr jobResult
		if err := c.getJSON("/api/v1/jobs/"+sub.ID+"/result", &jr); err != nil {
			return pointResult{}, submit, err
		}
		switch {
		case jr.Complete && len(jr.Results) == 1:
			return jr.Results[0], submit, nil
		case jr.Complete || jr.State == "failed" || jr.State == "cancelled":
			return pointResult{}, submit, fmt.Errorf("job %s for %s/%s ended %s with %d results", sub.ID, p.arch, p.workload, jr.State, len(jr.Results))
		case time.Now().After(deadline):
			return pointResult{}, submit, fmt.Errorf("job %s for %s/%s still %s after %v", sub.ID, p.arch, p.workload, jr.State, pointTimeout)
		}
		time.Sleep(pause)
		if pause < 2*time.Millisecond {
			pause *= 2
		}
	}
}

func (c *client) getJSON(path string, v any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, b)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// instance is one in-process server on a loopback listener over a fresh
// store directory.
type instance struct {
	srv  *serve.Server
	hs   *http.Server
	done chan error
	c    *client
}

func startInstance(dir string, tr *tracer) (*instance, error) {
	sp := tr.start("store.Open", 0, 0)
	st, err := store.Open(dir)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Options{Store: st, Workers: serveWorkers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, err
	}
	in := &instance{srv: srv, hs: &http.Server{Handler: srv.Handler()}, done: make(chan error, 1)}
	go func() { in.done <- in.hs.Serve(ln) }()
	in.c = &client{
		base: "http://" + ln.Addr().String(),
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveWorkers + 1}},
		tr:   tr,
	}
	var health map[string]string
	if err := in.c.getJSON("/healthz", &health); err != nil {
		in.stop()
		return nil, err
	}
	return in, nil
}

// stop shuts the HTTP server and the worker pool down and waits for both.
func (in *instance) stop() error {
	err := in.hs.Shutdown(context.Background())
	if serr := <-in.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	in.c.hc.CloseIdleConnections()
	if _, derr := in.srv.Drain(); derr != nil && err == nil {
		err = derr
	}
	return err
}

// serveTotals accumulates a run's rounds.
type serveTotals struct {
	setups, walls, tracedWalls, untracedWalls []float64
	coldLats, hitLats, submits, builds        []float64
	opens, gets, puts                         []float64 // store driver, traced rounds
	cold                                      rates
	sims, hits, joins, rejected, warmPoints   float64
	warmHits                                  float64
	first                                     map[string][]byte // cold bytes of round 0, by workload|arch
	sim                                       passSums
}

// runServeSweep runs rounds of: a fresh server and store, a cold grid from
// two closed-loop client slots, then warm resubmissions of every point one
// at a time, each of which must be a store hit.
func runServeSweep(e *env) error {
	r := e.r
	grid := serveGrid(e.seed)
	tmp := filepath.Join(e.out, "gsbench-tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	tot := &serveTotals{first: map[string][]byte{}}
	n := passes(e.seconds, nominalServeRound, 3)
	for round := 0; round < n; round++ {
		tr := r.tr
		if round%2 == 0 {
			tr = nil
		}
		if err := serveRound(e, grid, tmp, round, tr, tot); err != nil {
			return err
		}
	}

	// Generated points have no committed digest (their seed= dial follows
	// the benchmark seed): check them against an in-process simulation.
	for _, p := range grid {
		if p.builtin {
			continue
		}
		want := tot.first[p.workload+"|"+p.arch.String()]
		sess, err := gscalar.NewSession(gscalar.DefaultConfig(), p.arch)
		if err != nil {
			return err
		}
		res, err := sess.RunWorkload(context.Background(), p.workload, 1)
		if r.check(err == nil, "%s/%s in process: %v", p.arch, p.workload, err) {
			b, _ := json.Marshal(res)
			r.check(bytes.Equal(b, want), "%s/%s: served result differs from an in-process run", p.arch, p.workload)
		}
	}

	r.setSetup(tot.setups)
	r.set("workloads.build_ms", median(tot.builds))
	r.set("wall_s", median(tot.walls))
	tot.cold.set(r)
	r.set("point_p50_ms", median(tot.coldLats))
	tv, tp := tail(tot.coldLats)
	r.set("point_tail_ms", tv)
	r.set("bench.point_tail_pct", tp)
	r.set("bench.point_samples", float64(len(tot.coldLats)))
	hv, hp := tail(tot.hitLats)
	r.note("point_tail_ms is p%g of %d cold samples; hit tail is p%g of %d samples (%.3f ms, median %.3f ms)",
		tp, len(tot.coldLats), hp, len(tot.hitLats), hv, median(tot.hitLats))
	base, gs := map[string]float64{}, map[string]float64{}
	for _, p := range grid {
		if !p.builtin {
			continue
		}
		var res gscalar.Result
		if err := json.Unmarshal(tot.first[p.workload+"|"+p.arch.String()], &res); !r.check(err == nil, "%s/%s: no cold result: %v", p.arch, p.workload, err) {
			continue
		}
		if p.arch == gscalar.Baseline {
			base[p.workload] = res.IPCPerW
		} else {
			gs[p.workload] = res.IPCPerW
		}
	}
	r.set("ipcw_err_pp", ipcwErrPP(base, gs))
	if r.tr != nil {
		tot.sim.setSim(r)
		r.set("serve.hit_p50_ms", median(tot.hitLats))
		r.set("serve.hit_tail_ms", hv)
		r.set("serve.hit_tail_pct", hp)
		r.set("serve.hit_samples", float64(len(tot.hitLats)))
		r.set("serve.submit_ms", median(tot.submits))
		r.set("store.open_ms", median(tot.opens))
		r.set("store.get_us", median(tot.gets))
		r.set("store.put_us", median(tot.puts))
		r.set("serve.simulations", tot.sims)
		r.set("serve.store_hits", tot.hits)
		r.set("serve.joins", tot.joins)
		r.set("serve.rejected", tot.rejected)
		r.set("serve.hit_ratio", tot.warmHits/tot.warmPoints)
		r.set("trace.overhead_s", median(tot.tracedWalls)-median(tot.untracedWalls))
		return runDrivers(e, "serial")
	}
	return nil
}

// serveRound runs one round against a fresh server and store.
func serveRound(e *env, grid []gridPoint, tmp string, round int, tr *tracer, tot *serveTotals) error {
	r := e.r
	dir, err := os.MkdirTemp(tmp, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	runtime.GC()
	start := time.Now()
	var specs []string
	seen := map[string]bool{}
	for _, p := range grid {
		if !seen[p.workload] {
			seen[p.workload] = true
			specs = append(specs, p.workload)
		}
	}
	b, err := buildAll(r, specs)
	if err != nil {
		return err
	}
	tot.builds = append(tot.builds, b...)
	in, err := startInstance(dir, tr)
	if err != nil {
		return err
	}
	tot.setups = append(tot.setups, time.Since(start).Seconds())

	// Cold phase: two slots, each taking the next point when its last one
	// has completed.
	rs := tr.start("bench.round", 0, 0)
	coldStart := time.Now()
	cold := make([]pointResult, len(grid))
	lats := make([]float64, len(grid))
	errs := make([]error, len(grid))
	next := make(chan int)
	var wg sync.WaitGroup
	for s := 0; s < serveWorkers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				pid := tr.point()
				sp := tr.start("bench.point", rs, pid)
				t := time.Now()
				cold[i], _, errs[i] = in.c.do(sp, pid, grid[i])
				lats[i] = ms(time.Since(t))
				tr.end(sp)
			}
		}()
	}
	for _, i := range shuffled(e.seed, 1000*round, len(grid)) {
		next <- i
	}
	close(next)
	wg.Wait()
	coldSecs := time.Since(coldStart).Seconds()
	tot.coldLats = append(tot.coldLats, lats...)

	var sums passSums
	for i, p := range grid {
		if errors.Is(errs[i], errRejected) {
			tot.rejected++
		}
		if !r.check(errs[i] == nil, "cold %s/%s: %v", p.arch, p.workload, errs[i]) {
			continue
		}
		var res gscalar.Result
		if err := json.Unmarshal(cold[i].Result, &res); !r.check(err == nil && !cold[i].Partial, "cold %s/%s: bad result: %v", p.arch, p.workload, err) {
			continue
		}
		sums.add(res.WarpInsts, res.Cycles, res.DRAMTransactions, res.L1MissRate)
		if p.builtin {
			err := verifyResult(e.digests, "serial", 1, p.arch, p.workload, res)
			r.check(err == nil, "%v", err)
		} else {
			r.check(res.ExecMode == "serial" && res.WarpInsts > 0, "cold %s/%s: ran %s with %d warp insts", p.arch, p.workload, res.ExecMode, res.WarpInsts)
		}
		id := p.workload + "|" + p.arch.String()
		if round == 0 {
			tot.first[id] = cold[i].Result
		} else {
			r.check(bytes.Equal(tot.first[id], cold[i].Result), "cold %s/%s: round %d result differs from round 0", p.arch, p.workload, round)
		}
	}
	tot.cold.add(len(grid), sums.warpInsts, sums.cycles, coldSecs)
	if round == 0 {
		tot.sim = sums
	}
	st := in.srv.Stats()
	r.check(st.Simulations == uint64(len(grid)), "cold phase ran %d simulations for %d distinct points", st.Simulations, len(grid))

	// Warm phase: one request at a time; every one must be a store hit.
	for rep := 0; rep < warmReps; rep++ {
		for _, i := range shuffled(e.seed, 1000*round+1+rep, len(grid)) {
			p := grid[i]
			before := in.srv.Stats()
			pid := tr.point()
			sp := tr.start("bench.hit", rs, pid)
			t := time.Now()
			pr, submit, err := in.c.do(sp, pid, p)
			lat := time.Since(t)
			tr.end(sp)
			after := in.srv.Stats()
			tot.warmPoints++
			tot.warmHits += float64(after.StoreHits - before.StoreHits)
			if errors.Is(err, errRejected) {
				tot.rejected++
			}
			if !r.check(err == nil, "warm %s/%s: %v", p.arch, p.workload, err) {
				continue
			}
			tot.hitLats = append(tot.hitLats, ms(lat))
			tot.submits = append(tot.submits, ms(submit))
			err = checkWarm(before.Simulations, after.Simulations, pr.Cached, cold[i].Result, pr.Result)
			r.check(err == nil, "warm %s/%s: %v", p.arch, p.workload, err)
		}
	}
	tr.end(rs)
	wall := time.Since(start).Seconds()
	tot.walls = append(tot.walls, wall)
	if tr != nil {
		tot.tracedWalls = append(tot.tracedWalls, wall)
	} else {
		tot.untracedWalls = append(tot.untracedWalls, wall)
	}

	st = in.srv.Stats()
	tot.sims += float64(st.Simulations)
	tot.hits += float64(st.StoreHits)
	tot.joins += float64(st.Joins)
	if err := in.stop(); err != nil {
		return err
	}
	if tr != nil {
		return storeDriver(e.r, tot, dir, cold)
	}
	return nil
}

// storeDriver re-opens the round's own store and times Open, Get and Put
// over its entries.
func storeDriver(r *report, tot *serveTotals, dir string, cold []pointResult) error {
	var st *store.Store
	for i := 0; i < 3; i++ {
		sp := r.tr.start("store.Open", 0, 0)
		t := time.Now()
		s, err := store.Open(dir)
		tot.opens = append(tot.opens, ms(time.Since(t)))
		r.tr.end(sp)
		if err != nil {
			return err
		}
		st = s
	}
	var entries []store.Entry
	for _, c := range cold {
		sp := r.tr.start("store.Get", 0, 0)
		t := time.Now()
		ent, ok, err := st.Get(c.Key)
		tot.gets = append(tot.gets, float64(time.Since(t).Nanoseconds())/1e3)
		r.tr.end(sp)
		if r.check(err == nil && ok && bytes.Equal(ent.Result, c.Result), "store get %s: ok=%v err=%v", c.Key, ok, err) {
			entries = append(entries, ent)
		}
	}
	for _, ent := range entries {
		sp := r.tr.start("store.Put", 0, 0)
		t := time.Now()
		err := st.Put(ent)
		tot.puts = append(tot.puts, float64(time.Since(t).Nanoseconds())/1e3)
		r.tr.end(sp)
		r.check(err == nil, "store put %s: %v", ent.Key, err)
	}
	return nil
}

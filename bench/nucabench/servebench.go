package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nucasim/internal/rng"
	"nucasim/internal/serve"
	"nucasim/internal/sim"
	"nucasim/internal/telemetry"
)

// The serve workload is an open loop against an in-process nucaserve
// (one worker) over loopback: requests are due on a fixed schedule at
// serveRate per second whatever the server does, sent over at most two
// client connections, and timed from their due time. In every block of
// requests, freshPerBlock submit a job never seen before and wait for its
// result; the rest re-request one of hitSpecs specs committed at set-up,
// so the store's verified reads and HTTP carry them. With 30% fresh, the
// median falls among hits and the 80th percentile among fresh jobs, so
// both paths show in the end-to-end metrics. The server keeps every job
// record (with its telemetry rings) for its lifetime, so the rate of
// fresh jobs also sets how far peak_rss_mb grows over a run.
const (
	serveRate     = 10.0
	block         = 10
	freshPerBlock = 3
	hitSpecs      = 16
)

// Application pairs cycled through by the specs, so every run draws the
// same mix of job costs.
var servePairs = [][]string{{"ammp", "gzip"}, {"mcf", "art"}, {"swim", "wupwise"}, {"gcc", "twolf"}}

type serveBench struct {
	smoke bool
	seed  uint64
	hits  []serve.JobRequest
	srv   *server
	dirs  []string
}

func newServe(smoke bool) *serveBench { return &serveBench{smoke: smoke} }

// hitSpec is a tiny job: its cost is paid once, at set-up.
func hitSpec(seed uint64, j int) serve.JobRequest {
	return serve.JobRequest{Scheme: "adaptive", Apps: servePairs[j%len(servePairs)], Seed: seed*1000 + uint64(j),
		WarmupInstructions: 10_000, WarmupCycles: 1_000, MeasureCycles: 1_000}
}

// freshSpec is the k-th fresh job of a run: a distinct seed, so it is
// never cached or deduplicated, and a run of a few tens of milliseconds.
func freshSpec(seed uint64, k int, smoke bool) serve.JobRequest {
	req := serve.JobRequest{Scheme: "adaptive", Apps: servePairs[k%len(servePairs)], Seed: 1<<40 + seed<<20 + uint64(k),
		WarmupInstructions: 50_000, WarmupCycles: 5_000, MeasureCycles: 10_000}
	if smoke {
		req.WarmupInstructions, req.MeasureCycles = 10_000, 2_000
	}
	return req
}

// server is one nucaserve instance on a loopback listener.
type server struct {
	s    *serve.Server
	http *http.Server
	base string
	done chan error
}

func startServer(dir string) (*server, error) {
	s, err := serve.New(serve.Options{StateDir: dir, Workers: 1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Shutdown(context.Background())
		return nil, err
	}
	srv := &server{s: s, http: &http.Server{Handler: s.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { srv.done <- srv.http.Serve(ln) }()
	return srv, nil
}

func (srv *server) stop() error {
	ctx := context.Background()
	err := srv.http.Shutdown(ctx)
	if serr := <-srv.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := srv.s.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// setup commits every hit spec through a first server, stops it, and
// starts a second over the same directory, so the first hits go through
// recovery's verified store reads.
func (b *serveBench) setup(e *env) error {
	b.seed = e.seed
	b.hits = b.hits[:0]
	n := hitSpecs
	if b.smoke {
		n = 4
	}
	for j := 0; j < n; j++ {
		b.hits = append(b.hits, hitSpec(e.seed, j))
	}
	dir := filepath.Join(e.outDir, fmt.Sprintf("serve-%d-%d", os.Getpid(), len(b.dirs)))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	b.dirs = append(b.dirs, dir)
	srv, err := startServer(dir)
	if err != nil {
		return err
	}
	c := newClient()
	for _, req := range b.hits {
		if _, _, err := c.job(srv.base, req, true); err != nil {
			srv.stop()
			return fmt.Errorf("committing hit spec: %w", err)
		}
	}
	if err := srv.stop(); err != nil {
		return err
	}
	if b.srv, err = startServer(dir); err != nil {
		return err
	}
	_, _, err = c.do("GET", b.srv.base+"/healthz", nil, http.StatusOK)
	return err
}

func (b *serveBench) close() {
	if b.srv != nil {
		if err := b.srv.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "stopping server:", err)
		}
		b.srv = nil
	}
	for _, d := range b.dirs {
		os.RemoveAll(d)
	}
}

// client is the load generator's HTTP side: at most two connections.
type client struct{ http *http.Client }

func newClient() *client {
	return &client{http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}}
}

// do sends one request and reads the whole body; it returns the body and
// the time to the first response byte, and fails on any status but want.
func (c *client) do(method, url string, body []byte, want int) ([]byte, time.Duration, error) {
	var first time.Time
	start := time.Now()
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotFirstResponseByte: func() { first = time.Now() },
	})
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != want {
		err = fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, first.Sub(start), err
}

// job submits req and returns its result bytes. A fresh job is followed
// on its event stream until it ends; a cached one must be done already.
func (c *client) job(base string, req serve.JobRequest, fresh bool) ([]byte, time.Duration, error) {
	body, _ := json.Marshal(req)
	want := http.StatusOK
	if fresh {
		want = http.StatusAccepted
	}
	data, ttfb, err := c.do("POST", base+"/v1/jobs", body, want)
	if err != nil {
		return nil, 0, err
	}
	var st serve.Status
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, 0, err
	}
	if fresh {
		if st, err = c.waitDone(base, st.ID); err != nil {
			return nil, 0, err
		}
	}
	if st.State != serve.StateDone {
		return nil, 0, fmt.Errorf("job %.12s is %s: %s", st.ID, st.State, st.Error)
	}
	data, ttfb2, err := c.do("GET", base+"/v1/jobs/"+st.ID+"/result", nil, http.StatusOK)
	return data, ttfb + ttfb2, err
}

// waitDone reads the job's NDJSON event stream to its end and returns the
// last status it carried.
func (c *client) waitDone(base, id string) (serve.Status, error) {
	var st serve.Status
	resp, err := c.http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var ev struct {
			Type   string        `json:"type"`
			Status *serve.Status `json:"status"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return st, err
		}
		if ev.Status != nil {
			st = *ev.Status
		}
	}
	return st, sc.Err()
}

// request is one scheduled request and what became of it.
type request struct {
	fresh   bool
	spec    int // hit spec index, or fresh job index
	due     time.Time
	late    time.Duration // send time - due
	latency time.Duration // result bytes - due
	ttfb    time.Duration
	body    []byte
	err     error
}

// spec is the job a request submits.
func (b *serveBench) spec(rq *request) serve.JobRequest {
	if rq.fresh {
		return freshSpec(b.seed, rq.spec, b.smoke)
	}
	return b.hits[rq.spec]
}

// schedule lays out n requests: in every block, freshPerBlock fresh ones
// at seed-chosen positions, so every run has the same share of them, and
// uniformly chosen hit specs.
func schedule(seed uint64, n, hits int) []request {
	r := rng.New(seed ^ 0x5e4e)
	reqs := make([]request, n)
	perm := make([]int, block)
	fresh := 0
	for i := range reqs {
		if i%block == 0 {
			r.Perm(perm)
		}
		if perm[i%block] < freshPerBlock {
			reqs[i] = request{fresh: true, spec: fresh}
			fresh++
		} else {
			reqs[i] = request{spec: r.Intn(hits)}
		}
	}
	return reqs
}

// window drives the open loop for seconds and returns every request.
func (b *serveBench) window(e *env, seconds float64) []request {
	reqs := schedule(e.seed, max(block, int(seconds*serveRate)), len(b.hits))
	c := newClient()
	start := time.Now().Add(10 * time.Millisecond)
	due := func(i int) time.Time {
		return start.Add(time.Duration(float64(i) / serveRate * float64(time.Second)))
	}
	var next, inflight atomic.Int64
	var wg sync.WaitGroup
	for conn := 0; conn < 2; conn++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				rq := &reqs[i]
				rq.due = due(i)
				time.Sleep(time.Until(rq.due))
				inflight.Add(1)
				sent := time.Now()
				rq.late = sent.Sub(rq.due)
				rq.err = safely(func() (err error) {
					rq.body, rq.ttfb, err = c.job(b.srv.base, b.spec(rq), rq.fresh)
					return err
				})
				end := time.Now()
				inflight.Add(-1)
				rq.latency = end.Sub(rq.due)
				kind := "hit"
				if rq.fresh {
					kind = "fresh"
				}
				e.spans.add(kind, "request", tidClient+conn, sent, end.Sub(sent))
			}
		}(conn)
	}
	if e.host != nil {
		// Sample the calibration kernel 60 ms after each request is due,
		// when it has usually finished and the next is 40 ms away, and
		// only while no request is in flight, so the kernel never competes
		// with the server.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range reqs {
				time.Sleep(time.Until(due(i).Add(60 * time.Millisecond)))
				if inflight.Load() == 0 {
					e.host.sample()
				}
			}
		}()
	}
	wg.Wait()
	return reqs
}

// verify checks every response after the window, outside timing: hits
// against the pinned digests (or, unpinned, against each other) and a
// direct sim.Run of the spec; fresh jobs against a direct sim.Run. A
// mismatch fails the request. It returns the decoded fresh results.
func (b *serveBench) verify(e *env, reqs []request) (tally, map[int]sim.Result) {
	var tl tally
	fresh := make(map[int]sim.Result)
	direct := make(map[int][]byte) // hit spec → direct run bytes
	for i := range reqs {
		rq := &reqs[i]
		tl.attempted++
		if rq.err == nil {
			rq.err = safely(func() error {
				spec := b.spec(rq)
				if !rq.fresh {
					if err := e.verify(fmt.Sprintf("hit%02d", rq.spec), []string{digest(rq.body)}); err != nil {
						return err
					}
				}
				want, ok := direct[rq.spec]
				if !ok || rq.fresh {
					var err error
					if want, err = directRun(spec); err != nil {
						return err
					}
					if !rq.fresh {
						direct[rq.spec] = want
					}
				}
				if !bytes.Equal(want, rq.body) {
					return fmt.Errorf("served result differs from a direct run of %+v", spec)
				}
				if rq.fresh {
					r, err := serve.DecodeResult(rq.body)
					fresh[rq.spec] = r
					return err
				}
				return nil
			})
		}
		if rq.err != nil {
			tl.failed++
			fmt.Fprintln(os.Stderr, "request failed:", rq.err)
		}
	}
	return tl, fresh
}

// directRun computes a spec's result bytes the way the service does.
func directRun(req serve.JobRequest) ([]byte, error) {
	cfg, mix, err := req.Build()
	if err != nil {
		return nil, err
	}
	hash, err := sim.SpecHash(cfg, mix)
	if err != nil {
		return nil, err
	}
	cfg.Telemetry = &telemetry.Config{Run: hash}
	r, err := sim.RunContext(context.Background(), cfg, mix)
	if err != nil {
		return nil, err
	}
	return serve.EncodeResult(r)
}

// freshInstrs counts the simulated instructions of a fresh job.
func freshInstrs(req serve.JobRequest, r sim.Result) uint64 {
	n := uint64(len(r.CoreStats)) * req.WarmupInstructions
	for _, c := range r.CoreStats {
		n += c.Instructions
	}
	return n
}

func (b *serveBench) measure(e *env, m metrics) (tally, error) {
	a0 := allocBytes()
	reqs := b.window(e, e.seconds)
	alloc := allocBytes() - a0
	tl, fresh := b.verify(e, reqs)
	var lat []float64
	var instrs uint64
	var freshWall float64
	for _, rq := range reqs {
		ms := float64(rq.latency) / 1e6
		if rq.err != nil {
			ms = failedLatencyMs(e)
		}
		lat = append(lat, ms)
		if r, ok := fresh[rq.spec]; ok && rq.fresh {
			instrs += freshInstrs(b.spec(&rq), r)
			freshWall += rq.latency.Seconds()
		}
	}
	m["op_ms_p50"] = quantile(lat, 0.5)
	m["op_ms_p80"] = quantile(lat, 0.8)
	m["sim_minstr_per_s"] = ratio(float64(instrs)/1e6, freshWall)
	m["alloc_mb_per_op"] = float64(alloc) / (1 << 20) / float64(len(reqs))
	report(reqs)
	return tl, nil
}

// report prints the load generator's own view: latency by request kind
// and how late the schedule ran. The end-to-end metrics fold the kinds
// together.
func report(reqs []request) {
	var hit, fresh, late []float64
	for _, rq := range reqs {
		late = append(late, float64(rq.late)/1e6)
		if rq.fresh {
			fresh = append(fresh, float64(rq.latency)/1e6)
		} else {
			hit = append(hit, float64(rq.latency)/1e6)
		}
	}
	fmt.Printf("serve: %d hits p50 %.2f ms p95 %.2f ms; %d fresh p50 %.1f ms p90 %.1f ms; late p99 %.2f ms max %.2f ms\n",
		len(hit), quantile(hit, 0.5), quantile(hit, 0.95), len(fresh), quantile(fresh, 0.5), quantile(fresh, 0.9),
		quantile(late, 0.99), quantile(late, 1))
	if p99 := quantile(late, 0.99); p99 > 5 {
		fmt.Printf("serve: warning: the load generator ran late (p99 %.2f ms > 5 ms); latencies include it\n", p99)
	}
}

// scrape reads counters and histogram sums from /metrics.
func scrape(c *client, base string) (map[string]float64, error) {
	data, _, err := c.do("GET", base+"/metrics", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

// trace runs a shorter window under the CPU profile, scrapes the server's
// own counters, then recomputes fresh jobs directly and on the traced
// machine, checking the traced counters against the served results.
func (b *serveBench) trace(e *env, m metrics) (tally, error) {
	prof, err := startProfile(e)
	if err != nil {
		return tally{}, err
	}
	reqs := b.window(e, 0.5*e.seconds)
	if err := prof.stop(m); err != nil {
		return tally{}, err
	}
	sc, err := scrape(newClient(), b.srv.base)
	if err != nil {
		return tally{}, err
	}
	tl, fresh := b.verify(e, reqs)
	if tl.failed > 0 {
		return tl, fmt.Errorf("%d requests failed", tl.failed)
	}
	m["serve.cache_hits"] = sc["serve_cache_hits"]
	m["serve.jobs_deduped"] = sc["serve_jobs_deduped"]
	m["serve.jobs_submitted"] = sc["serve_jobs_submitted"]
	var freshLat, hitLat, hitTTFB, late, all float64
	for _, rq := range reqs {
		all += float64(rq.latency)
		late += float64(rq.late)
		if rq.fresh {
			freshLat += float64(rq.latency)
		} else {
			hitLat += float64(rq.latency)
			hitTTFB += float64(rq.ttfb)
		}
	}
	m["serve.queue_wait_share"] = ratio(1e3*sc["serve_job_queue_wait_us_sum"], freshLat)
	m["serve.run_share"] = ratio(1e3*sc["serve_job_run_us_sum"], freshLat)
	m["http.ttfb_share"] = ratio(hitTTFB, hitLat)
	m["loadgen.late_share"] = ratio(late, all)

	var ledger layerLedger
	var untracedWalls, tracedWalls []float64
	var results []sim.Result
	var instrs uint64
	t := &tracer{spans: e.spans}
	deadline := time.Now().Add(time.Duration(0.35 * e.seconds * float64(time.Second)))
	for k := 0; k < len(fresh) && (k < minTracedOps(e) || time.Now().Before(deadline)); k++ {
		r, ok := fresh[k]
		if !ok {
			continue
		}
		req := freshSpec(b.seed, k, b.smoke)
		cfg, mix, err := req.Build()
		if err != nil {
			return tl, err
		}
		start := time.Now()
		if _, err := sim.RunContext(context.Background(), cfg, mix); err != nil {
			return tl, err
		}
		untracedWalls = append(untracedWalls, time.Since(start).Seconds())
		t.reset()
		start = time.Now()
		out := runTraced(cfg, mix, t)
		d := time.Since(start)
		e.spans.add("traced op", "op", tidOps, start, d)
		tracedWalls = append(tracedWalls, d.Seconds())
		ledger.add(t, d, out)
		if !out.counters.equal(countersOf(r)) {
			return tl, fmt.Errorf("traced run of fresh job %d differs from the served result", k)
		}
		results = append(results, r)
		instrs += freshInstrs(req, r)
	}
	if len(results) == 0 {
		return tl, errors.New("no fresh job completed")
	}
	if err := ledger.check(); err != nil {
		return tl, err
	}
	ledger.fill(m)
	m["trace.op_ms"] = 1e3 * median(tracedWalls)
	m["trace.overhead_x"] = median(tracedWalls) / median(untracedWalls)
	simulatedStats(results, m)
	m["workload.instr_per_op"] = float64(instrs) / float64(len(results))
	cfg, mix, err := freshSpec(b.seed, 0, b.smoke).Build()
	if err != nil {
		return tl, err
	}
	if err := probeLayers(e, cfg, mix, results[0], m); err != nil {
		return tl, err
	}
	m["workload.est_share"] = m["workload.next_ns"] * m["workload.instr_per_op"] / (median(untracedWalls) * 1e9)
	return tl, nil
}

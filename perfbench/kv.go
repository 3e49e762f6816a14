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
	"sync"
	"sync/atomic"
	"time"

	"ssmp/internal/core"
	"ssmp/internal/kvapp"
	"ssmp/internal/metrics"
	"ssmp/internal/server"
)

// kvDaemon is an in-process ssmpd (one worker) on loopback, driven by two
// closed-loop client connections. Every cold request is a distinct /v1/kv
// spec — 64 procs, contended Ω, lane engine — and after each cold request
// the client repeats cachedPerCold specs it has completed, which must come
// back from the cache.
type kvDaemon struct {
	srv     *server.Server
	hs      *http.Server
	served  chan struct{}
	url     string
	clients []*http.Client
	lanes   int
	shape   kvapp.Spec
	// coldPerPass distinct cold specs make up a pass; client c sends the
	// ones whose index is c modulo the client count, so the pass's outputs
	// do not depend on how many clients nproc allows.
	coldPerPass int
	// tamper, when set, edits each decoded response before it is checked
	// (self-tests use it to show a failing oracle is caught).
	tamper func(*server.KVResult)

	hits, requests atomic.Int64
	mu             sync.Mutex
	traced         []coldSample
}

// coldSample is one cold request of a traced pass.
type coldSample struct {
	seed    uint64
	latency time.Duration
	digest  string
}

const (
	// cachedPerCold repeats follow each cold request, so ~91% of requests
	// are cache hits and a run collects ≥1000 hits for ≥100 cold jobs.
	cachedPerCold = 10
	// maxDirect bounds the traced run's direct kvapp.Run replays.
	maxDirect = 24
)

func (k *kvDaemon) fixedInputs() bool { return false }

// setup starts the daemon and its clients and waits until it answers.
func (k *kvDaemon) setup(e *env) error {
	k.lanes = min(2, e.cfg.nproc)
	k.shape = kvapp.DefaultSpec(64)
	k.shape.Keys, k.shape.Shards, k.shape.Sessions, k.shape.Ops, k.shape.SubCap = 256, 16, 2, 64, 32
	k.coldPerPass = 16
	if e.cfg.tiny {
		k.shape = kvapp.DefaultSpec(8)
		k.shape.Keys, k.shape.Shards, k.shape.Sessions, k.shape.Ops, k.shape.SubCap = 64, 8, 2, 16, 8
		k.coldPerPass = 4
	}

	k.srv = server.New(server.Config{Workers: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	k.hs = &http.Server{Handler: k.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	k.served = make(chan struct{})
	go func() {
		defer close(k.served)
		_ = k.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	k.url = "http://" + ln.Addr().String()
	k.clients = nil
	for i := 0; i < min(2, e.cfg.nproc); i++ {
		k.clients = append(k.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	resp, err := k.clients[0].Get(k.url + "/healthz")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

// close drains the HTTP server and the daemon and waits for both.
func (k *kvDaemon) close() {
	if k.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = k.hs.Shutdown(ctx) // a timeout leaves nothing to do but move on
	<-k.served
	_ = k.srv.Shutdown(ctx)
	for _, c := range k.clients {
		c.CloseIdleConnections()
	}
	k.hs = nil
}

func (k *kvDaemon) pass(e *env, pass int) string {
	digs := make([]string, k.coldPerPass)
	var wg sync.WaitGroup
	for c := range k.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			k.client(e, pass, c, digs)
		}(c)
	}
	wg.Wait()
	d := newDigester()
	d.add(digs...)
	return d.sum()
}

// client is one closed-loop connection's share of a pass; it stores the
// digest of each of its cold results in digs.
func (k *kvDaemon) client(e *env, pass, c int, digs []string) {
	hc := k.clients[c]
	root := e.begin("bench.client", e.passSpan)
	defer e.end(root)
	type done struct {
		seed   uint64
		digest string
	}
	var completed []done
	for i := c; i < k.coldPerPass; i += len(k.clients) {
		seed := deriveSeed(e.cfg.seed, 5, uint64(pass), uint64(i))
		s := e.begin("server.POST /v1/kv", root.id)
		res, cached, err := k.post(hc, seed)
		lat := e.end(s)
		dig := ""
		if err == nil && cached {
			err = fmt.Errorf("kv seed %d: a cold request was served from the cache", seed)
		}
		if err == nil {
			err = checkKV(res, k.shape)
			dig = kvDigest(res.Cycles, res.Counters, res.P50, res.P99, res.Latency, res.Oracle)
		}
		e.op("op", lat, err)
		digs[i] = dig
		if err != nil {
			continue
		}
		if e.tr != nil {
			k.mu.Lock()
			k.traced = append(k.traced, coldSample{seed, lat, dig})
			k.mu.Unlock()
		}
		completed = append(completed, done{seed, dig})
		pick := deriveSeed(e.cfg.seed, 6, uint64(pass), uint64(i))
		for j := 0; j < cachedPerCold; j++ {
			want := completed[deriveSeed(pick, uint64(j))%uint64(len(completed))]
			s := e.begin("server.POST /v1/kv cached", root.id)
			res, cached, err := k.post(hc, want.seed)
			lat := e.end(s)
			if err == nil && !cached {
				err = fmt.Errorf("kv seed %d: a repeated request missed the cache", want.seed)
			}
			if err == nil && kvDigest(res.Cycles, res.Counters, res.P50, res.P99, res.Latency, res.Oracle) != want.digest {
				err = fmt.Errorf("kv seed %d: the cached result differs from the cold one", want.seed)
			}
			e.op("cached", lat, err)
		}
	}
}

// post submits the spec with the given seed and decodes the response. A
// non-2xx status is an error.
func (k *kvDaemon) post(hc *http.Client, seed uint64) (*server.KVResult, bool, error) {
	body, err := json.Marshal(map[string]any{
		"procs": k.shape.Procs, "lock": k.shape.Lock, "keys": k.shape.Keys, "shards": k.shape.Shards,
		"sessions": k.shape.Sessions, "ops": k.shape.Ops, "sub_cap": k.shape.SubCap,
		"seed": seed, "sim_workers": k.lanes,
	})
	if err != nil {
		return nil, false, err
	}
	resp, err := hc.Post(k.url+"/v1/kv", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, false, err
	}
	k.requests.Add(1)
	if resp.StatusCode/100 != 2 {
		return nil, false, fmt.Errorf("kv seed %d: %s: %s", seed, resp.Status, bytes.TrimSpace(data))
	}
	var job struct {
		Cached bool            `json:"cached"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(data, &job); err != nil {
		return nil, false, fmt.Errorf("kv seed %d: decoding response: %w", seed, err)
	}
	var res server.KVResult
	if err := json.Unmarshal(job.Result, &res); err != nil {
		return nil, false, fmt.Errorf("kv seed %d: decoding result: %w", seed, err)
	}
	if job.Cached {
		k.hits.Add(1)
	}
	if k.tamper != nil {
		k.tamper(&res)
	}
	return &res, job.Cached, nil
}

// checkKV is a KV job's verdict: the sequential-consistency oracle passed
// and every requested op completed and was timed.
func checkKV(res *server.KVResult, spec kvapp.Spec) error {
	if len(res.Oracle.Violations) > 0 {
		return fmt.Errorf("kv: oracle violation: %s", res.Oracle.Violations[0])
	}
	want := uint64(spec.Procs * spec.Ops)
	if res.Ops != want || res.Latency == nil || res.Latency.Count() != want {
		return fmt.Errorf("kv: %d ops completed, %d requested", res.Ops, want)
	}
	if res.Oracle.ReadsChecked == 0 {
		return errors.New("kv: the oracle checked no reads")
	}
	return nil
}

// kvDigest covers a KV job's simulated outputs: completion time, counters,
// the latency histogram and the oracle verdict.
func kvDigest(cycles uint64, c kvapp.Counters, p50, p99 uint64, h *metrics.Histogram, o kvapp.OracleReport) string {
	hist, _ := json.Marshal(h) // a Histogram always marshals
	d := newDigester()
	d.add(fmt.Sprintf("%d %+v %d %d", cycles, c, p50, p99), string(hist),
		fmt.Sprintf("%d %d %d %q", o.KeysWritten, o.WritesChecked, o.ReadsChecked, o.Violations))
	return d.sum()
}

// direct runs the spec with the given seed straight through kvapp.
func (k *kvDaemon) direct(seed uint64, workers int) (*kvapp.Result, error) {
	spec := k.shape
	spec.Seed = seed
	res, err := kvapp.Run(context.Background(), spec, kvapp.RunOptions{SimWorkers: workers})
	if err == nil {
		err = res.Check()
	}
	return res, err
}

// layers replays the traced passes' cold specs through kvapp.Run directly
// (which must reproduce the daemon's result), splits each cold latency
// into simulation and daemon overhead, and times serial against lanes.
func (k *kvDaemon) layers(e *env, m map[string]float64) error {
	samples := k.traced
	if len(samples) > maxDirect {
		samples = samples[:maxDirect]
	}
	if len(samples) == 0 {
		return errors.New("kv: no cold request completed in the traced passes")
	}
	e.run = -1
	var runs, overheads []float64
	var runNS, events, msgs, queueing float64
	for _, s := range samples {
		sp := e.begin("kvapp.Run", -1)
		res, err := k.direct(s.seed, k.lanes)
		d := e.end(sp)
		if err == nil && kvDigest(uint64(res.Sim.Cycles), res.Counters, res.P50(), res.P99(), &res.All, res.Oracle) != s.digest {
			err = fmt.Errorf("kv seed %d: kvapp.Run and the daemon disagree", s.seed)
		}
		e.op("direct", 0, err)
		if err != nil {
			continue
		}
		runs = append(runs, float64(d)/1e6)
		overheads = append(overheads, float64(s.latency-d)/1e6)
		runNS += float64(d)
		events += float64(res.Sim.Events)
		msgs += float64(res.Sim.Messages)
		queueing += res.Sim.MeanNetQueueing * float64(res.Sim.Messages)
	}
	n := float64(len(runs))
	m["kvapp.run_ms"] = median(runs)
	m["server.overhead_ms"] = median(overheads)
	m["core.run_ns_per_event"] = runNS / events
	m["core.ns_per_message"] = runNS / msgs
	m["core.events"] = events / n
	m["network.messages"] = msgs / n
	m["network.mean_queueing_cycles"] = queueing / msgs

	var serial, lanes []float64
	for _, s := range samples[:min(4, len(samples))] {
		for _, workers := range []int{0, k.lanes} {
			t0 := time.Now()
			_, err := k.direct(s.seed, workers)
			d := time.Since(t0).Seconds()
			e.op("lane-ablation", 0, err)
			if workers == 0 {
				serial = append(serial, d)
			} else {
				lanes = append(lanes, d)
			}
		}
	}
	m["sim.lane_speedup"] = median(serial) / median(lanes)

	// The machine kvapp.Run builds for this shape: the cbl lock runs on
	// the CBL protocol.
	cfg := core.DefaultConfig(k.shape.Procs)
	cfg.Protocol = core.ProtoCBL
	cfg.SimWorkers = k.lanes
	var builds []float64
	for i := 0; i < 8; i++ {
		sp := e.begin("core.NewMachine", -1)
		core.NewMachine(cfg)
		builds = append(builds, float64(e.end(sp))/1e3)
	}
	m["core.build_us"] = median(builds)

	m["server.cold_p90_ms"] = quantile(e.lat["op"], 0.90)
	m["server.cached_p50_ms"] = quantile(e.lat["cached"], 0.50)
	m["server.cached_p99_ms"] = quantile(e.lat["cached"], 0.99)
	m["server.cache_hit_ratio"] = float64(k.hits.Load()) / float64(k.requests.Load())
	return nil
}

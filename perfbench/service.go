package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sramtest/internal/charac"
	"sramtest/internal/cluster"
	"sramtest/internal/engine"
	"sramtest/internal/jobs"
	"sramtest/internal/server"
	"sramtest/internal/store"
	"sramtest/internal/sweep"
)

// serviceClients is the number of closed-loop clients (one per core of
// the 2-core reference machine).
const serviceClients = 2

// serviceHitShare is the fraction of requests that repeat the hit set.
const serviceHitShare = 0.8

// serviceRounds is the number of rounds a pass is split into.
const serviceRounds = 3

// hitSpecs is the fixed hit set built in set-up: cheap specs of the exp,
// charac, yield and faultmap kinds whose result sizes differ.
var hitSpecs = []string{
	`{"kind":"exp","exp":{"samples":1,"seed":101}}`,
	`{"kind":"exp","exp":{"samples":4,"seed":102}}`,
	`{"kind":"charac","charac":{"defects":[26],"caseStudies":[3]}}`,
	`{"kind":"yield","yield":{"samples":1,"seed":104,"vref":1.0}}`,
	`{"kind":"faultmap","faultmap":{"maps":1,"seed":105,"tests":["March C-"]}}`,
}

// Request headers carrying the op id and client span to the handler
// wrapper, so server spans join their client span.
const (
	opHeader   = "X-Perfbench-Op"
	spanHeader = "X-Perfbench-Span"
)

// service drives an in-process sramd node (memory store, one job
// executor, loopback HTTP) with closed-loop one-line POST /v1/batch
// requests: 80% repeat the hit set, 20% are fresh 1-sample exp specs.
type service struct {
	seed int64
	n    int

	st     *store.Store
	mgr    *jobs.Manager
	srv    *http.Server
	served chan struct{} // closed when Serve returns
	url    string
	client *http.Client
	hits   [][]byte // set-up result bytes per hit spec

	tr         atomic.Pointer[tracer]
	handlerIDs sync.Map // op -> handler span id (traced pass)
	freshOp    sync.Map // fresh exp seed -> op

	reqs []svcReq // current pass
	got  []cluster.BatchResult
}

type svcReq struct {
	line []byte
	hit  int // index into hitSpecs, -1 for a fresh spec
}

func newService(seed int64, seconds int) *service {
	return &service{seed: seed, n: opsFor(seconds, 1.0/40, 20)}
}

func (w *service) ops() int { return w.n }

// rounds is 3: a host stall of a few seconds then moves one round's
// numbers, not the run's median.
func (w *service) rounds() int { return serviceRounds }

func (w *service) opKey(i int) string { return string(bytes.TrimSpace(w.reqs[i].line)) }

// requests builds pass p's op list: in every round exactly a fifth of
// the requests are fresh, at seeded positions, and the rest are seeded
// picks from the hit set. Passes share the positions and hit picks and
// use disjoint fresh seeds, so a traced pass after the untraced one
// still misses the store on every fresh request.
func (w *service) requests(pass int) []svcReq {
	reqs := make([]svcReq, w.n)
	fresh := map[int]bool{}
	for r := 0; r < serviceRounds; r++ {
		lo, hi := r*w.n/serviceRounds, (r+1)*w.n/serviceRounds
		perm := rand.New(rand.NewSource(sweep.ChunkSeed(w.seed, 1<<30+r))).Perm(hi - lo)
		for _, j := range perm[:int(float64(hi-lo)*(1-serviceHitShare))] {
			fresh[lo+j] = true
		}
	}
	for i := range reqs {
		if !fresh[i] {
			j := rand.New(rand.NewSource(sweep.ChunkSeed(w.seed, i))).Intn(len(hitSpecs))
			reqs[i] = svcReq{line: []byte(hitSpecs[j] + "\n"), hit: j}
			continue
		}
		s := opSeed(w.seed+int64(pass)<<32, i)
		w.freshOp.Store(s, i)
		reqs[i] = svcReq{line: []byte(fmt.Sprintf("{\"kind\":\"exp\",\"exp\":{\"samples\":1,\"seed\":%d}}\n", s)), hit: -1}
	}
	return reqs
}

// setUp starts a fresh node from cold program caches and fills its store
// with the hit set through one batch request.
func (w *service) setUp() error {
	w.close()
	charac.ResetCache()
	engine.ResetDRVCache()
	st, err := store.Open("", 4096)
	if err != nil {
		return err
	}
	w.st = st
	w.mgr = jobs.NewManager(jobs.Config{Workers: 1, QueueDepth: 16, Store: st, Run: w.runJob})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.url = "http://" + ln.Addr().String() + "/v1/batch"
	w.srv = &http.Server{Handler: w.wrap(server.New(w.mgr, st))}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	w.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: serviceClients,
		MaxConnsPerHost:     serviceClients,
		DisableCompression:  true,
	}}

	body := []byte{}
	for _, s := range hitSpecs {
		body = append(append(body, s...), '\n')
	}
	res, err := w.post(body, -1, -1)
	if err != nil {
		return err
	}
	if len(res) != len(hitSpecs) {
		return fmt.Errorf("hit set: %d result lines for %d specs", len(res), len(hitSpecs))
	}
	w.hits = make([][]byte, len(hitSpecs))
	for _, r := range res {
		if r.State != cluster.BatchStateDone || r.Index < 0 || r.Index >= len(hitSpecs) {
			return fmt.Errorf("hit set line %d: state %s: %s", r.Index, r.State, r.Error)
		}
		w.hits[r.Index] = r.Result
	}
	return nil
}

// wrap is the handler wrapper whose span times the server side of each
// request.
func (w *service) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		tr := w.tr.Load()
		op, _ := strconv.Atoi(r.Header.Get(opHeader))
		parent, err := strconv.Atoi(r.Header.Get(spanHeader))
		if err != nil {
			parent = -1
		}
		id := tr.begin("server.batch", op, parent)
		if tr != nil {
			w.handlerIDs.Store(op, id)
		}
		h.ServeHTTP(rw, r)
		tr.end(id)
	})
}

// runJob is the manager's runner: it delegates to jobs.Run inside a
// span joined to the fresh request that caused it.
func (w *service) runJob(ctx context.Context, spec jobs.Spec) ([]byte, error) {
	tr := w.tr.Load()
	op, parent := -1, -1
	if tr != nil && spec.Exp != nil {
		if v, ok := w.freshOp.Load(spec.Exp.Seed); ok {
			op = v.(int)
			if h, ok := w.handlerIDs.Load(op); ok {
				parent = h.(int)
			}
		}
	}
	id := tr.begin("jobs.run", op, parent)
	defer tr.end(id)
	return jobs.Run(ctx, spec)
}

// post sends one NDJSON batch and decodes the result lines.
func (w *service) post(body []byte, op, span int) ([]cluster.BatchResult, error) {
	req, err := http.NewRequest(http.MethodPost, w.url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set(opHeader, strconv.Itoa(op))
	req.Header.Set(spanHeader, strconv.Itoa(span))
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("batch: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var out []cluster.BatchResult
	dec := json.NewDecoder(resp.Body)
	for {
		var r cluster.BatchResult
		if err := dec.Decode(&r); errors.Is(err, io.EOF) {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("batch: %w", err)
		}
		out = append(out, r)
	}
}

// round runs ops [lo, hi) from serviceClients closed-loop clients and
// returns when every reply is in: client c sends ops lo+c, lo+c+k, ...
func (w *service) round(lo, hi int, tr *tracer, rec func(int, time.Duration, []byte, error)) {
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := lo + c; i < hi; i += serviceClients {
				labeled("service", i, func() { w.request(i, tr, rec) })
			}
		}(c)
	}
	wg.Wait()
}

// request sends op i and reports its latency and result bytes.
func (w *service) request(i int, tr *tracer, rec func(int, time.Duration, []byte, error)) {
	id := tr.begin("client.request", i, -1)
	t0 := time.Now()
	res, err := w.post(w.reqs[i].line, i, id)
	lat := time.Since(t0)
	tr.end(id)
	if err == nil && len(res) != 1 {
		err = fmt.Errorf("%d result lines, want 1", len(res))
	}
	if err != nil {
		rec(i, lat, nil, err)
		return
	}
	w.got[i] = res[0]
	if res[0].State != cluster.BatchStateDone {
		rec(i, lat, nil, fmt.Errorf("state %s: %s", res[0].State, res[0].Error))
		return
	}
	rec(i, lat, res[0].Result, nil)
}

func (w *service) drive(pass int, tr *tracer, rec func(int, time.Duration, []byte, error)) {
	w.reqs = w.requests(pass)
	w.got = make([]cluster.BatchResult, w.n)
	w.tr.Store(tr)
	defer w.tr.Store(nil)
	h0, m0, e0 := w.st.Stats()
	s0 := w.mgr.Stats()
	start := time.Now()

	for r := 0; r < serviceRounds; r++ {
		w.round(r*w.n/serviceRounds, (r+1)*w.n/serviceRounds, tr, rec)
	}

	if tr == nil {
		return
	}
	h1, m1, e1 := w.st.Stats()
	s1 := w.mgr.Stats()
	tr.set("store.hits", float64(h1-h0))
	tr.set("store.misses", float64(m1-m0))
	tr.set("store.evictions", float64(e1-e0))
	if dh, dm := s1.CacheHits-s0.CacheHits, s1.CacheMisses-s0.CacheMisses; dh+dm > 0 {
		tr.set("jobs.cache_hit_ratio", float64(dh)/float64(dh+dm))
	}
	var wait []float64
	retries := 0
	list := w.mgr.List()
	for _, st := range list {
		if st.Created.Before(start) || st.Cached {
			continue
		}
		wait = append(wait, float64(st.Started.Sub(st.Created))/1e6)
		if st.Attempts > 1 {
			retries++
		}
	}
	tr.set("jobs.queue_wait_ms_p50", median(wait))
	tr.set("jobs.retries", float64(retries))
	tr.set("jobs.retained_records", float64(len(list)))
	tr.set("jobs.runner_ms_p50", median(tr.spansNamed("jobs.run")))
	w.serverSpans(tr)
}

// serverSpans splits handler time by hit and fresh requests and takes
// transport time as client span minus handler span.
func (w *service) serverSpans(tr *tracer) {
	tr.mu.Lock()
	client := map[int]span{}
	handler := map[int]span{}
	for _, s := range tr.spans {
		switch s.Name {
		case "client.request":
			client[s.Op] = s
		case "server.batch":
			handler[s.Op] = s
		}
	}
	tr.mu.Unlock()
	var hit, fresh, transport []float64
	for op, h := range handler {
		if op < 0 || op >= len(w.reqs) {
			continue
		}
		if w.reqs[op].hit >= 0 {
			hit = append(hit, h.ms())
		} else {
			fresh = append(fresh, h.ms())
		}
		if c, ok := client[op]; ok {
			transport = append(transport, c.ms()-h.ms())
		}
	}
	tr.set("server.hit_ms_p50", median(hit))
	tr.set("server.fresh_ms_p50", median(fresh))
	tr.set("client.transport_ms_p50", median(transport))
}

// check requires every line done, each hit byte-identical to its set-up
// result, and every fresh result non-empty.
func (w *service) check(results [][]byte) []error {
	errs := make([]error, len(results))
	for i, res := range results {
		if res == nil {
			continue
		}
		switch r := w.reqs[i]; {
		case r.hit >= 0 && !bytes.Equal(res, w.hits[r.hit]):
			errs[i] = fmt.Errorf("hit %d: %d result bytes differ from the set-up bytes", r.hit, len(res))
		case r.hit >= 0 && !w.got[i].Cached:
			errs[i] = fmt.Errorf("hit %d: served uncached", r.hit)
		case len(res) == 0:
			errs[i] = errors.New("empty fresh result")
		}
	}
	return errs
}

// close stops the node: the HTTP server, then the job manager.
func (w *service) close() {
	if w.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = w.srv.Shutdown(ctx) // in-flight requests are done by now
	<-w.served
	w.client.CloseIdleConnections()
	w.mgr.Drain(ctx)
	w.srv = nil
}

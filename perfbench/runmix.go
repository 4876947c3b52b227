package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"infat/internal/machine"
	"infat/internal/minic"
	"infat/internal/rt"
	"infat/internal/server"
)

// expectation is what a base program must produce in one mode.
type expectation struct {
	out   []int64
	exit  int64
	class string // service trap class; "" for a clean run
}

// stageTimes are the direct-call timings of the MiniC pipeline.
type stageTimes struct {
	parse, compile, lower, vmRun []float64 // microseconds per call
}

// trapClass maps a run error to the service's trap class, the same
// partition ifp-serve reports.
func trapClass(err error) string {
	if err == nil {
		return ""
	}
	var t *machine.Trap
	if !errors.As(err, &t) {
		return "other"
	}
	switch t.Kind {
	case machine.TrapPoison, machine.TrapBounds:
		return "spatial"
	case machine.TrapTemporal:
		return "temporal"
	case machine.TrapFuel:
		return "fuel"
	case machine.TrapInternal:
		return "internal"
	}
	return "other"
}

// oracle runs every base program in every mode through the MiniC
// pipeline directly — Parse, Compile, Lower, NewVM and Run, no interner,
// no server — timing each stage. Its results are the expectations the
// served responses are checked against. Juliet cases must also keep the
// suite's own verdicts: bad cases trap spatially in the IFP modes and run
// clean in baseline, good cases run clean everywhere; each violation is
// returned as an error.
func oracle(progs []program, modes []string) (map[[2]int]expectation, stageTimes, []error, error) {
	var st stageTimes
	var violations []error
	exp := make(map[[2]int]expectation, len(progs)*len(modes))
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	for pi, p := range progs {
		t0 := time.Now()
		ast, err := minic.Parse(p.Src)
		t1 := time.Now()
		if err != nil {
			return nil, st, nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		comp, err := minic.Compile(ast)
		t2 := time.Now()
		if err != nil {
			return nil, st, nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		if _, err := minic.Lower(comp); err != nil {
			return nil, st, nil, fmt.Errorf("%s: lower: %w", p.Name, err)
		}
		t3 := time.Now()
		st.parse = append(st.parse, us(t1.Sub(t0)))
		st.compile = append(st.compile, us(t2.Sub(t1)))
		st.lower = append(st.lower, us(t3.Sub(t2)))
		comp.Lowered() // the VM's cached lowering, outside the timed stages
		for mi, name := range modes {
			mode, err := rt.ParseMode(name)
			if err != nil {
				return nil, st, nil, err
			}
			r := rt.Acquire(mode)
			t4 := time.Now()
			vm, err := minic.NewVM(comp, r)
			if err != nil {
				rt.Release(r)
				return nil, st, nil, fmt.Errorf("%s/%s: %w", p.Name, name, err)
			}
			exit, err := vm.Run()
			st.vmRun = append(st.vmRun, us(time.Since(t4)))
			rt.Release(r)
			var re *minic.RunError
			if err != nil && !errors.As(err, &re) {
				return nil, st, nil, fmt.Errorf("%s/%s: %w", p.Name, name, err)
			}
			e := expectation{out: vm.Out, exit: exit, class: trapClass(err)}
			exp[[2]int{pi, mi}] = e
			if p.Juliet {
				want := ""
				if p.Bad && mode != rt.Baseline {
					want = "spatial"
				}
				if e.class != want {
					violations = append(violations, fmt.Errorf("juliet %s in %s: trap class %q, want %q", p.Name, name, e.class, want))
				}
			}
		}
	}
	return exp, st, violations, nil
}

// getJSON serves GET path on h in-process, without a network round
// trip, and decodes the JSON response into v.
func getJSON(h http.Handler, path string, v any) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, rec.Code)
	}
	return json.Unmarshal(rec.Body.Bytes(), v)
}

// metricsOf reads a server's /metrics counters. A failed read leaves
// them zero, which every gate built on them reports.
func metricsOf(h http.Handler) server.MetricsSnapshot {
	var snap server.MetricsSnapshot
	_ = getJSON(h, "/metrics", &snap)
	return snap
}

func listenLoopback() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// httpService is an in-process HTTP server on a loopback port.
type httpService struct {
	url  string
	hs   *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*httpService, error) {
	ln, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	s := &httpService{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return s, nil
}

// close shuts the server down and waits for its serve loop to end.
func (s *httpService) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	<-s.done
}

// newClient is a server.Client with at most conns connections and no
// retries: a refused request is a failed request, never hidden.
func newClient(url string, conns int) (*server.Client, *http.Transport) {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	c := server.NewClient(url)
	c.HTTP = &http.Client{Transport: tr, Timeout: time.Minute}
	c.NoRetry = true
	return c, tr
}

// sleepUntil blocks the calling goroutine's thread in nanosleep until t.
// The runtime's timers wake a sleeper up to a millisecond late on an
// idle process, which at this request rate would make generator
// lateness, not the server, set the latency tail; a thread blocked in a
// system call hands its P to other goroutines meanwhile.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the remainder
	}
}

// sendResult is one request's fate, timed from its due time.
type sendResult struct {
	latency time.Duration // done - due
	service time.Duration // done - sent
	late    time.Duration // sent - due
	ok      bool
	instrs  uint64
}

// runRunMix is the run-mix workload: an open loop of /v1/run requests
// at a fixed rate against an in-process ifp-serve.
func runRunMix(e *env, o opts) (*outcome, error) {
	isolate()
	peak := startPeakRSS()
	out := newOutcome()
	cfg := e.cfg.RunMix
	e.round++ // a second run in one process must not reuse fresh sources
	seed := e.seed*1000003 + uint64(e.round)
	window := time.Duration(o.seconds * float64(time.Second))
	if o.probe {
		window = 2 * time.Second
	}
	const warm = time.Second

	progs, err := corpusPrograms(e.root)
	if err != nil {
		return nil, err
	}
	expect, stages, violations, err := oracle(progs, cfg.Modes)
	if err != nil {
		return nil, fmt.Errorf("run-mix oracle: %w", err)
	}
	for _, v := range violations {
		out.attempted++
		out.fail("%v", v)
	}
	modeIdx := map[string]int{}
	for i, m := range cfg.Modes {
		modeIdx[m] = i
	}

	boot := func() (*server.Server, *httpService, schedule, error) {
		srv := server.New(server.Config{})
		svc, err := serve(srv)
		if err != nil {
			return nil, nil, schedule{}, err
		}
		return srv, svc, generate(cfg, progs, seed, warm+window), nil
	}
	setup, setupSamples, err := timeSetup(setupReps, setupMinBatch, func() (func(), error) {
		_, svc, _, err := boot()
		if err != nil {
			return nil, err
		}
		return svc.close, nil
	})
	if err != nil {
		return nil, fmt.Errorf("run-mix setup: %w", err)
	}
	srv, svc, sched, err := boot()
	if err != nil {
		return nil, err
	}
	defer svc.close()
	senders := runtime.GOMAXPROCS(0)
	client, tr := newClient(svc.url, senders)
	defer tr.CloseIdleConnections()

	reqs := sched.Requests
	results := make([]sendResult, len(reqs))
	var next atomic.Int64
	// The timed window opens with the first request due after warm-up;
	// the counters read there are its baseline.
	var mark sync.Once
	var alloc0, pause0 uint64
	var before server.MetricsSnapshot
	start := time.Now().Add(10 * time.Millisecond)
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				if r.Due >= warm {
					mark.Do(func() {
						alloc0, pause0 = heapAllocBytes(), gcPauseNs()
						before = metricsOf(srv)
						o.prof.begin()
					})
				}
				due := start.Add(r.Due)
				sleepUntil(due)
				sent := time.Now()
				resp, _, err := client.Run(ctx, server.RunRequest{Source: r.Source, Mode: r.Mode})
				done := time.Now()
				res := sendResult{latency: done.Sub(due), service: done.Sub(sent), late: sent.Sub(due)}
				if err == nil {
					want := expect[[2]int{r.Base, modeIdx[r.Mode]}]
					got := ""
					if resp.Trap != nil {
						got = resp.Trap.Class
					}
					res.ok = got == want.class && resp.Exit == want.exit && slices.Equal(resp.Output, want.out) &&
						(len(resp.Output) > 0) == (len(want.out) > 0)
					res.instrs = resp.Counters.Instrs
				}
				results[i] = res
			}
		}()
	}
	wg.Wait()
	end := time.Now()
	o.prof.end()
	alloc, pause := heapAllocBytes()-alloc0, gcPauseNs()-pause0
	after := metricsOf(srv)

	var lat, late []float64
	perSecond := windows{width: time.Second}
	byClass := map[string][]float64{}
	var okN, good int
	var instrs uint64
	var simService time.Duration // service time of the requests that simulated
	timedStart := -1
	for i, r := range reqs {
		res := results[i]
		if r.Due < warm {
			out.attempted++
			if !res.ok {
				out.fail("warm-up request %d (%s, %s): wrong or failed response", i, progs[r.Base].Name, r.Mode)
			}
			continue
		}
		if timedStart < 0 {
			timedStart = i
		}
		out.attempted++
		lat = append(lat, ms(res.latency))
		perSecond.add(r.Due-warm, ms(res.latency))
		late = append(late, ms(res.late))
		if !res.ok {
			out.fail("request %d (%s %s, %s): wrong or failed response", i, r.Class, progs[r.Base].Name, r.Mode)
			continue
		}
		okN++
		if r.Class != classRepeat { // a repeat replays its counters from the memo store
			instrs += res.instrs
			simService += res.service
		}
		byClass[r.Class] = append(byClass[r.Class], ms(res.service))
		if res.latency <= e.deadline("run-mix") {
			good++
		}
	}
	if timedStart < 0 || okN == 0 {
		return nil, errors.New("run-mix: no timed requests completed")
	}
	secs := end.Sub(start.Add(reqs[timedStart].Due)).Seconds()
	n := len(reqs) - timedStart
	windowP99, nWindows := perSecond.tailMedian(0.99)
	if nWindows == 0 {
		return nil, errors.New("run-mix: no one-second window holds enough requests for a p99")
	}
	out.e2e["setup_s"] = setup
	out.e2e["latency_p50_ms"] = median(lat)
	out.e2e["throughput_per_s"] = float64(okN) / secs
	out.e2e["sim_mips"] = float64(instrs) / simService.Seconds() / 1e6
	out.e2e["goodput_ratio"] = float64(good) / float64(n)
	out.e2e["host_alloc_mb"] = float64(alloc) / float64(n) / 1e6
	out.e2e["host_mem_peak_mb"] = peak.finish()
	out.info["requests"] = n
	out.info["classes"] = sched.Classes
	out.info["offered_rate_per_s"] = cfg.RatePerS
	out.info["setup_samples_s"] = setupSamples
	out.info["warmup_ms"] = ms(warm)
	out.info["latency_p99_ms"] = map[string]any{"value": windowP99, "over": "median of per-second p99", "samples": len(lat), "windows": nWindows}
	out.info["rss_method"] = peak.method
	out.info["gen_late_p99_ms"] = p99Info(late)

	if !o.traced {
		return out, nil
	}
	for _, c := range classes {
		out.layer["run."+c+"_p50_ms"] = median(byClass[c])
	}
	out.layer["minic.parse_us"] = median(stages.parse)
	out.layer["minic.compile_us"] = median(stages.compile)
	out.layer["minic.lower_us"] = median(stages.lower)
	out.layer["minic.vm_run_us"] = median(stages.vmRun)
	hits, misses := after.Cache["hits"]-before.Cache["hits"], after.Cache["misses"]-before.Cache["misses"]
	if hits+misses > 0 {
		out.layer["memo.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	out.layer["server.rejected"] = float64(after.Admission["rejected"] - before.Admission["rejected"])
	out.layer["gen.late_p99_ms"] = p99(late)
	out.layer["run.p99_ms"] = windowP99
	out.layer["gc.pause_ms_per_op"] = float64(pause) / 1e6 / float64(n)
	out.layer["bench.warmup_ms"] = ms(warm)
	return out, nil
}

package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"infat/internal/exp"
	"infat/internal/memo"
	"infat/internal/rt"
	"infat/internal/server"
	"infat/internal/shard"
)

// fleetBackends is the fleet size: one backend per CPU.
const fleetBackends = maxProcs

// fleet is an in-process serving tier: ifp-serve backends with one
// worker each behind a shard, all on loopback.
type fleet struct {
	backends []*server.Server
	svcs     []*httpService // backends first, the shard last
	shard    *shard.Shard
	url      string
}

// backendAddrs maps the fleet's stable backend host names to the
// loopback addresses their listeners were given. The shard's consistent
// hash ring hashes backend URLs, so naming backends by their random
// ports would hand every fleet a different cell split — and a different
// campaign time; stable names give every fleet the same split, as a
// deployment with fixed backend addresses has.
var backendAddrs sync.Map // "ifp-serve-N:80" -> "127.0.0.1:port"

// The shard reaches its backends through http.DefaultTransport; resolve
// the stable names there.
func init() {
	tr := http.DefaultTransport.(*http.Transport)
	dial := tr.DialContext
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if a, ok := backendAddrs.Load(addr); ok {
			addr = a.(string)
		}
		return dial(ctx, network, addr)
	}
}

// bootFleet starts n backends (loading the memo snapshot in memoDir when
// it is set) and the shard over them. Fleets in one process run one at a
// time: a new fleet takes over the backend names.
func bootFleet(n int, memoDir string, seed uint64) (*fleet, error) {
	f := &fleet{}
	var urls []string
	for i := 0; i < n; i++ {
		srv := server.New(server.Config{Workers: 1, MemoDir: memoDir})
		svc, err := serve(srv)
		if err != nil {
			f.close()
			return nil, err
		}
		f.backends = append(f.backends, srv)
		f.svcs = append(f.svcs, svc)
		name := fmt.Sprintf("ifp-serve-%d:80", i)
		backendAddrs.Store(name, strings.TrimPrefix(svc.url, "http://"))
		urls = append(urls, "http://"+name)
	}
	sh, err := shard.New(shard.Config{Backends: urls, Seed: seed})
	if err != nil {
		f.close()
		return nil, err
	}
	f.shard = sh
	svc, err := serve(sh)
	if err != nil {
		f.close()
		return nil, err
	}
	f.svcs = append(f.svcs, svc)
	f.url = svc.url
	return f, nil
}

// close stops the shard's health loop, then every server, and waits
// for them.
func (f *fleet) close() {
	if f.shard != nil {
		f.shard.Close()
	}
	for i := len(f.svcs) - 1; i >= 0; i-- {
		f.svcs[i].close()
	}
	// The shard's backend connections ride the default transport; none
	// may outlive this fleet's servers.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// campaign is one streamed /v1/batch campaign as the client saw it.
type campaign struct {
	total    time.Duration
	arrivals []float64 // ms from the request to each cell's arrival
	addTime  time.Duration
	instrs   uint64
	report   string
}

// runCampaign streams the full-report campaign, its cells requested in
// the given order, folds every cell into a checked assembly as it
// arrives and renders the report.
func runCampaign(ctx context.Context, c *server.Client, plan exp.Plan, order []int) (campaign, error) {
	var k campaign
	a := plan.NewAssembly()
	t0 := time.Now()
	trailer, err := c.BatchStream(ctx, server.BatchRequest{Cells: order}, func(cell server.BatchCell) error {
		k.arrivals = append(k.arrivals, ms(time.Since(t0)))
		if cell.Error != "" {
			return fmt.Errorf("cell %d failed: %s", cell.Seq, cell.Error)
		}
		if cell.Result == nil {
			return fmt.Errorf("cell %d has no result", cell.Seq)
		}
		a0 := time.Now()
		err := a.AddChecked(cell.Meta(), *cell.Result)
		k.addTime += time.Since(a0)
		if cell.Result.Perf != nil {
			k.instrs += cell.Result.Perf.Counters.Instrs
		}
		return err
	})
	if err != nil {
		return k, err
	}
	if trailer.Failed != 0 || trailer.Completed != plan.NumCells() {
		return k, fmt.Errorf("trailer: %d of %d cells completed, %d failed", trailer.Completed, plan.NumCells(), trailer.Failed)
	}
	k.report, err = a.Report()
	k.total = time.Since(t0)
	return k, err
}

// fleetCounters sums what the backends report through /metrics.
type fleetCounters struct {
	memoHits, memoMisses uint64
	cells                []uint64 // cells simulated, per backend
}

func (f *fleet) counters() fleetCounters {
	var c fleetCounters
	for _, b := range f.backends {
		s := metricsOf(b)
		c.memoHits += s.Memo["hits"]
		c.memoMisses += s.Memo["misses"]
		c.cells = append(c.cells, s.Batch["cells"])
	}
	return c
}

// shardCounters reads the shard's own /metrics counters.
func (f *fleet) shardCounters() (map[string]uint64, error) {
	var resp shard.MetricsResponse
	if err := getJSON(f.shard, "/metrics", &resp); err != nil {
		return nil, fmt.Errorf("shard metrics: %w", err)
	}
	return resp.Shard, nil
}

// measure runs timed ops until at least minOps ran and the window is
// used up — the last op starts only if at least half of it fits — counting
// each as attempted; it stops early once more than three ops have
// failed. It returns the number of timed ops.
func measure(out *outcome, seconds float64, minOps int, op func() bool) int {
	window := time.Duration(seconds * float64(time.Second))
	timed, last := 0, time.Duration(0)
	for start := time.Now(); timed < minOps || time.Since(start)+last/2 < window; {
		timed++
		out.attempted++
		t0 := time.Now()
		ok := op()
		last = time.Since(t0)
		if !ok && out.failed > 3 {
			break
		}
	}
	return timed
}

// runFleetCold is the fleet-cold workload: every op boots a fresh fleet
// and streams one full /v1/batch campaign through the shard. Nothing may
// come from a memo store.
func runFleetCold(e *env, o opts) (*outcome, error) {
	isolate()
	peak := startPeakRSS()
	out := newOutcome()
	setup, setupSamples, err := timeSetup(setupReps, setupMinBatch, func() (func(), error) {
		f, err := bootFleet(fleetBackends, "", e.seed)
		if err != nil {
			return nil, err
		}
		return f.close, nil
	})
	if err != nil {
		return nil, fmt.Errorf("fleet-cold setup: %w", err)
	}
	plan := reportPlan()
	order := cellOrder(plan.NumCells(), e.seed)
	ctx := context.Background()

	var ks []campaign
	var skew, waste []float64
	shardTotals := map[string]uint64{}
	op := func(timed bool) bool {
		f, err := bootFleet(fleetBackends, "", e.seed)
		if err != nil {
			out.fail("boot: %v", err)
			return false
		}
		defer f.close()
		c, tr := newClient(f.url, 1)
		defer tr.CloseIdleConnections()
		// A fresh fleet constructs its runtimes, as fresh ifp-serve
		// processes do: none may come from an earlier op's pool.
		rt.DefaultPool.Drain()
		runtime.GC()
		k, err := runCampaign(ctx, c, plan, order)
		if err != nil {
			out.fail("campaign: %v", err)
			return false
		}
		fc := f.counters()
		sc, err := f.shardCounters()
		switch {
		case err != nil:
			out.fail("%v", err)
			return false
		case reportDigest(k.report) != e.cfg.GoldenReportSHA256:
			out.fail("report digest %s != golden", reportDigest(k.report))
			return false
		case fc.memoHits != 0:
			out.fail("cold campaign served %d memo hits", fc.memoHits)
			return false
		}
		if !timed {
			return true
		}
		ks = append(ks, k)
		var sum, max uint64
		for _, n := range fc.cells {
			sum += n
			if n > max {
				max = n
			}
		}
		if sum > 0 {
			skew = append(skew, float64(max)/(float64(sum)/float64(len(fc.cells))))
		}
		waste = append(waste, float64(sum)/float64(plan.NumCells()))
		for _, name := range []string{"hedged_cells", "reassigned_cells", "dup_suppressed"} {
			shardTotals[name] += sc[name]
		}
		return true
	}

	minOps, warmup := 3, time.Duration(0)
	if o.probe {
		minOps = 1
	} else {
		w0 := time.Now()
		out.attempted++
		op(false)
		warmup = time.Since(w0)
	}
	alloc0, pause0 := heapAllocBytes(), gcPauseNs()
	deadline := e.deadline("fleet-cold")
	o.prof.begin()
	timed := measure(out, o.seconds, minOps, func() bool { return op(true) })
	o.prof.end()
	alloc, pause := heapAllocBytes()-alloc0, gcPauseNs()-pause0
	if len(ks) == 0 {
		return out, nil
	}
	var totals, first []float64
	onTime := 0
	for _, k := range ks {
		totals = append(totals, ms(k.total))
		first = append(first, k.arrivals[0])
		if k.total <= deadline {
			onTime++
		}
	}
	p50 := median(totals)
	n := float64(timed)
	out.e2e["setup_s"] = setup
	out.e2e["latency_p50_ms"] = p50
	out.e2e["throughput_per_s"] = float64(plan.NumCells()) / (p50 / 1e3)
	out.e2e["sim_mips"] = float64(ks[0].instrs) / (p50 / 1e3) / 1e6
	out.e2e["goodput_ratio"] = float64(onTime) / n
	out.e2e["host_alloc_mb"] = float64(alloc) / n / 1e6
	out.e2e["host_mem_peak_mb"] = peak.finish()
	out.info["campaigns"] = len(ks)
	out.info["campaign_ms"] = totals
	out.info["setup_samples_s"] = setupSamples
	out.info["warmup_ms"] = ms(warmup)
	out.info["rss_method"] = peak.method

	if !o.traced {
		return out, nil
	}
	out.layer["fleet.first_cell_ms"] = median(first)
	out.layer["fleet.backend_skew"] = median(skew)
	out.layer["fleet.sim_waste_ratio"] = median(waste)
	out.layer["shard.hedged_cells"] = float64(shardTotals["hedged_cells"]) / n
	out.layer["shard.reassigned_cells"] = float64(shardTotals["reassigned_cells"]) / n
	out.layer["shard.dup_suppressed_cells"] = float64(shardTotals["dup_suppressed"]) / n
	out.layer["gc.pause_ms_per_op"] = float64(pause) / 1e6 / n
	out.layer["bench.warmup_ms"] = ms(warmup)
	return out, nil
}

// buildSnapshot computes the full report campaign into a memo store with
// one worker per CPU and saves it as a snapshot in dir. It is the
// untimed preparation of fleet-warm.
func buildSnapshot(dir string) error {
	store := memo.NewStore(memo.DefaultEntries)
	plan := reportPlan().WithMemo(store)
	cells := make(chan int)
	errs := make([]error, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range cells {
				if _, err := plan.ComputeCell(i); err != nil && errs[w] == nil {
					errs[w] = err
				}
			}
		}()
	}
	for i := 0; i < plan.NumCells(); i++ {
		cells <- i
	}
	close(cells)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	return store.SaveSnapshot(dir)
}

// warmP99Campaigns is the fixed number of timed warm campaigns the p99
// of fleet-warm is taken over: the fewest that leave 10 beyond it.
const warmP99Campaigns = 1000

// runFleetWarm is the fleet-warm workload: one fleet whose backends
// each loaded a full-campaign memo snapshot, streaming warm /v1/batch
// campaigns through the shard. Every cell must be a memo hit.
func runFleetWarm(e *env, o opts) (*outcome, error) {
	isolate()
	dir := filepath.Join(e.tmp, "memo")
	if err := buildSnapshot(dir); err != nil {
		return nil, fmt.Errorf("fleet-warm snapshot: %w", err)
	}
	isolate()
	peak := startPeakRSS()
	out := newOutcome()
	setup, setupSamples, err := timeSetup(setupReps, setupMinBatch, func() (func(), error) {
		f, err := bootFleet(fleetBackends, dir, e.seed)
		if err != nil {
			return nil, err
		}
		return f.close, nil
	})
	if err != nil {
		return nil, fmt.Errorf("fleet-warm setup: %w", err)
	}
	f, err := bootFleet(fleetBackends, dir, e.seed)
	if err != nil {
		return nil, err
	}
	defer f.close()
	plan := reportPlan()
	order := cellOrder(plan.NumCells(), e.seed)
	cells := uint64(plan.NumCells())
	ctx := context.Background()
	client, tr := newClient(f.url, 1)
	defer tr.CloseIdleConnections()

	var ks []campaign
	op := func(c *server.Client) (campaign, bool) {
		before := f.counters()
		k, err := runCampaign(ctx, c, plan, order)
		if err != nil {
			out.fail("campaign: %v", err)
			return k, false
		}
		after := f.counters()
		hits, misses := after.memoHits-before.memoHits, after.memoMisses-before.memoMisses
		switch {
		case reportDigest(k.report) != e.cfg.GoldenReportSHA256:
			out.fail("report digest %s != golden", reportDigest(k.report))
			return k, false
		case hits != cells || misses != 0:
			out.fail("warm campaign: %d memo hits and %d misses for %d cells", hits, misses, cells)
			return k, false
		}
		return k, true
	}

	// Every run, probes included, times at least warmP99Campaigns
	// campaigns, so fleet.warm_p99_ms always has its sample count.
	minOps := warmP99Campaigns
	w0 := time.Now()
	for i := 0; i < 10; i++ {
		out.attempted++
		op(client)
	}
	warmup := time.Since(w0)
	alloc0, pause0 := heapAllocBytes(), gcPauseNs()
	deadline := e.deadline("fleet-warm")
	o.prof.begin()
	timed := measure(out, o.seconds, minOps, func() bool {
		k, ok := op(client)
		if ok {
			ks = append(ks, k)
		}
		return ok
	})
	o.prof.end()
	alloc, pause := heapAllocBytes()-alloc0, gcPauseNs()-pause0
	if len(ks) == 0 {
		return out, nil
	}
	var totals, add []float64
	onTime := 0
	for _, k := range ks {
		totals = append(totals, ms(k.total))
		add = append(add, float64(k.addTime)/1e3/float64(cells))
		if k.total <= deadline {
			onTime++
		}
	}
	p50 := median(totals)
	p99Samples := totals[:min(len(totals), warmP99Campaigns)]
	n := float64(timed)
	out.e2e["setup_s"] = setup
	out.e2e["latency_p50_ms"] = p50
	out.e2e["throughput_per_s"] = float64(cells) / (p50 / 1e3)
	out.e2e["sim_mips"] = float64(ks[0].instrs) / (p50 / 1e3) / 1e6
	out.e2e["goodput_ratio"] = float64(onTime) / n
	out.e2e["host_alloc_mb"] = float64(alloc) / n / 1e6
	out.e2e["host_mem_peak_mb"] = peak.finish()
	out.info["campaigns"] = len(ks)
	out.info["setup_samples_s"] = setupSamples
	out.info["warmup_ms"] = ms(warmup)
	out.info["latency_p99_ms"] = p99Info(p99Samples)
	out.info["rss_method"] = peak.method

	if !o.traced {
		return out, nil
	}
	// Relay cost: the same warm campaign streamed straight from one
	// backend, which holds every cell in its own store.
	direct, dtr := newClient(f.svcs[0].url, 1)
	defer dtr.CloseIdleConnections()
	var directMs []float64
	for i := 0; i < len(ks) && i < 200; i++ {
		out.attempted++
		if k, ok := op(direct); ok {
			directMs = append(directMs, ms(k.total))
		}
	}
	out.layer["fleet.warm_p99_ms"] = p99(p99Samples)
	out.layer["relay.us_per_cell"] = (p50 - median(directMs)) * 1e3 / float64(cells)
	out.layer["client.add_checked_us_per_cell"] = median(add)
	var bytes int
	err = client.StreamNDJSON(ctx, server.BatchPath, server.BatchRequest{Cells: order}, func(line []byte) error {
		bytes += len(line) + 1
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("fleet-warm stream bytes: %w", err)
	}
	out.layer["server.bytes_per_cell"] = float64(bytes) / float64(cells)
	var loads []float64
	for i := 0; i < 9; i++ {
		s := memo.NewStore(server.DefaultCacheEntries)
		t0 := time.Now()
		if err := s.LoadSnapshot(dir); err != nil {
			return nil, fmt.Errorf("fleet-warm snapshot load: %w", err)
		}
		loads = append(loads, ms(time.Since(t0)))
	}
	out.layer["memo.snapshot_load_ms"] = median(loads)
	out.layer["gc.pause_ms_per_op"] = float64(pause) / 1e6 / n
	out.layer["bench.warmup_ms"] = ms(warmup)
	return out, nil
}

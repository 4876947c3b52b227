// Command perfbench is the repository benchmark: four workloads that
// measure the §5.2 evaluation end to end and layer by layer, from
// outside the program — it times its own calls into the public
// functions of exp, server, shard, minic and memo, and reads counters
// from their public APIs, without changing program code.
//
//	perfbench --workload grid-cold --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is one JSON object
// holding every end-to-end metric; with --trace 1 it holds every
// per-layer metric instead, measured by a separate traced run (CPU
// profile on) whose overhead is reported beside them. Everything runs in
// one process: in-process ifp-serve backends and shards on loopback.
// run.py at the benchmark root builds this command and runs it.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

//go:embed config.json
var configJSON []byte

// config is the workload table (config.json): the golden digest of the
// report `ifp-bench -parallel 1` prints, each workload's op deadline
// (the goodput limit), and the fixed offered rate, modes and class
// shares of run-mix.
type config struct {
	GoldenReportSHA256 string             `json:"golden_report_sha256"`
	DeadlineMs         map[string]float64 `json:"deadline_ms"`
	RunMix             runMixConfig       `json:"run_mix"`
}

const (
	// maxProcs caps GOMAXPROCS (and so workers and connections) at the
	// 2 CPUs the benchmark is tuned for, below nproc on larger hosts.
	maxProcs = 2
	// setupReps is how many set-up samples a run takes; setup_s is their
	// median. setupMinBatch is the shortest batch a sample may time.
	setupReps     = 9
	setupMinBatch = 200 * time.Millisecond
)

func loadConfig() (config, error) {
	var c config
	if err := json.Unmarshal(configJSON, &c); err != nil {
		return c, fmt.Errorf("config.json: %w", err)
	}
	return c, nil
}

// env is what every workload receives: the checkout root, the seed its
// inputs are derived from, the parameter table and a private scratch
// directory inside the checkout.
type env struct {
	root string
	seed uint64
	cfg  config
	tmp  string
	// round counts run-mix runs in this process, so a second run (the
	// traced half) generates fresh sources the first never sent.
	round int
}

// deadline is the workload's op latency limit, the goodput criterion.
func (e *env) deadline(workload string) time.Duration {
	return time.Duration(e.cfg.DeadlineMs[workload] * float64(time.Millisecond))
}

// opts selects how long a workload measures. A probe is the short
// traced pass a traced run makes over the workloads it is not profiling,
// so every per-layer metric is present in every traced result.
type opts struct {
	seconds float64
	traced  bool
	probe   bool
	prof    *profiler // non-nil: CPU-profile the timed ops
}

// profiler CPU-profiles the timed ops of one workload run, leaving its
// set-up and warm-up out of the attribution. Its methods are no-ops on
// a nil receiver.
type profiler struct {
	p       *cpuProfile
	shares  map[string]float64
	samples int
	err     error
}

func (pr *profiler) begin() {
	if pr != nil {
		pr.p, pr.err = startProfile()
	}
}

func (pr *profiler) end() {
	if pr != nil && pr.p != nil {
		pr.shares, pr.samples, pr.err = pr.p.stop()
		pr.p = nil
	}
}

// outcome is one workload run: ops attempted and failed, the end-to-end
// metrics, and (traced) the per-layer metrics of its group.
type outcome struct {
	attempted int
	failed    int
	failures  []string
	e2e       map[string]float64
	layer     map[string]float64
	info      map[string]any
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, info: map[string]any{}}
}

// fail counts one failed op and keeps the first few reasons.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

type workloadFunc func(e *env, o opts) (*outcome, error)

// workloadTable lists the workloads in BENCHMARK.json order.
var workloadTable = []struct {
	name string
	run  workloadFunc
}{
	{"grid-cold", runGridCold},
	{"run-mix", runRunMix},
	{"fleet-cold", runFleetCold},
	{"fleet-warm", runFleetWarm},
}

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"sim_mips", "MIPS"},
	{"goodput_ratio", "ratio"},
	{"host_alloc_mb", "MB"},
	{"host_mem_peak_mb", "MB"},
}

// selfBuckets are the CPU-profile attribution buckets: internal/
// packages by name plus the Go runtime, net/http, the network stack,
// encoding/json, the benchmark itself and everything else.
var selfBuckets = []string{
	"cache", "workloads", "machine", "mem", "mac", "metadata", "rt", "heap", "tag", "layout",
	"exp", "minic", "memo", "server", "shard", "juliet",
	"goruntime", "nethttp", "netio", "json", "bench", "other",
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"bench.warmup_ms", "ms"},
		{"bench.trace_overhead_ratio", "ratio"},
		{"gc.pause_ms_per_op", "ms"},
		{"exp.cell_ms.baseline", "ms"},
		{"exp.cell_ms.subheap", "ms"},
		{"exp.cell_ms.wrapped", "ms"},
		{"exp.cell_ms.subheap_np", "ms"},
		{"exp.cell_ms.wrapped_np", "ms"},
		{"exp.mem_cell_ms", "ms"},
		{"machine.ns_per_instr", "ns"},
		{"ifp.ns_per_promote.subheap", "ns"},
		{"ifp.ns_per_promote.wrapped", "ns"},
		{"machine.instrs", "count"},
		{"machine.promotes_valid", "count"},
		{"machine.meta_fetches", "count"},
		{"cache.l1d_misses", "count"},
		{"rt_pool.hit_ratio", "ratio"},
		{"run.fresh_p50_ms", "ms"},
		{"run.known_p50_ms", "ms"},
		{"run.repeat_p50_ms", "ms"},
		{"minic.parse_us", "us"},
		{"minic.compile_us", "us"},
		{"minic.lower_us", "us"},
		{"minic.vm_run_us", "us"},
		{"memo.hit_ratio", "ratio"},
		{"server.rejected", "count"},
		{"gen.late_p99_ms", "ms"},
		{"run.p99_ms", "ms"},
		{"fleet.warm_p99_ms", "ms"},
		{"fleet.first_cell_ms", "ms"},
		{"fleet.backend_skew", "ratio"},
		{"fleet.sim_waste_ratio", "ratio"},
		{"shard.hedged_cells", "count"},
		{"shard.reassigned_cells", "count"},
		{"shard.dup_suppressed_cells", "count"},
		{"relay.us_per_cell", "us"},
		{"client.add_checked_us_per_cell", "us"},
		{"server.bytes_per_cell", "bytes"},
		{"memo.snapshot_load_ms", "ms"},
	}
	for _, b := range selfBuckets {
		defs = append(defs, metricDef{"self." + b, "share"})
	}
	return defs
}()

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: grid-cold, run-mix, fleet-cold or fleet-warm")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 20, "measurement window per run, in seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	root := fs.String("root", ".", "repository checkout root")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl workloadFunc
	for _, w := range workloadTable {
		if w.name == *name {
			wl = w.run
		}
	}
	if wl == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload in {%s}, --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg, err := loadConfig()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if _, err := os.Stat(filepath.Join(*root, "internal", "exp")); err != nil {
		fmt.Fprintln(stderr, "perfbench: not a checkout root:", err)
		return 1
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs))

	scratch := filepath.Join(*root, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench: scratch dir:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(scratch, "perfbench-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: scratch dir:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	e := &env{root: *root, seed: *seed, cfg: cfg, tmp: tmp}
	host := fingerprint(*root, *seed)
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *trace)

	var res checkedResult
	var detail map[string]any
	if *trace == 0 {
		o, err := wl(e, opts{seconds: *seconds})
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		res = result(o, endToEnd, o.e2e)
		detail = map[string]any{"host": host, "workload": *name, "info": o.info, "failures": o.failures}
		printTable(stdout, "end-to-end ("+*name+")", endToEnd, o.e2e)
	} else {
		o, overhead, err := tracedRun(e, *name, wl, *seconds)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		res = result(o, perLayer, o.layer)
		detail = map[string]any{"host": host, "workload": *name, "info": o.info, "failures": o.failures,
			"trace_overhead": overhead}
		printTable(stdout, "per-layer (traced run, profiled workload "+*name+")", perLayer, o.layer)
		fmt.Fprintf(stdout, "tracing overhead: traced p50 %.4g ms vs untraced p50 %.4g ms (%+.1f%%)\n",
			overhead["traced_p50_ms"], overhead["untraced_p50_ms"], 100*(o.layer["bench.trace_overhead_ratio"]-1))
	}
	d, _ := json.Marshal(detail)
	if len(res.missing) > 0 {
		fmt.Fprintf(stderr, "perfbench: not measured: %s\ndetail: %s\n", strings.Join(res.missing, ", "), d)
		return 1
	}
	fmt.Fprintf(stdout, "detail: %s\n", d)
	line, _ := json.Marshal(res.resultLine)
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloadTable {
		out = append(out, w.name)
	}
	return out
}

type checkedResult struct {
	resultLine
	missing []string
}

// result builds the final line from exactly the listed metrics; a listed
// metric the run did not produce (or produced as NaN) is reported as
// missing, which fails the run.
func result(o *outcome, defs []metricDef, vals map[string]float64) checkedResult {
	r := checkedResult{resultLine: resultLine{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.missing = append(r.missing, d.name)
			continue
		}
		r.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	if r.Attempted < 1 {
		r.Correct = false
	}
	return r
}

func printTable(w io.Writer, title string, defs []metricDef, vals map[string]float64) {
	fmt.Fprintf(w, "== %s ==\n", title)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", d.name, vals[d.name], d.unit)
	}
}

// tracedRun is the --trace 1 path: the named workload runs once
// untraced and once with the CPU profiler on over its timed ops (half
// the window each), so the tracing overhead is the ratio of their median
// op latencies; the profiled half supplies the self-time shares. Every
// other workload then runs as a short probe so its layer metrics are
// present too.
func tracedRun(e *env, name string, wl workloadFunc, seconds float64) (*outcome, map[string]float64, error) {
	half := seconds / 2
	plain, err := wl(e, opts{seconds: half})
	if err != nil {
		return nil, nil, err
	}
	prof := &profiler{}
	traced, err := wl(e, opts{seconds: half, traced: true, prof: prof})
	prof.end() // in case the workload returned before ending it
	if err != nil {
		return nil, nil, err
	}
	if prof.err != nil {
		return nil, nil, prof.err
	}
	out := newOutcome()
	out.attempted = plain.attempted + traced.attempted
	out.failed = plain.failed + traced.failed
	out.failures = append(plain.failures, traced.failures...)
	for k, v := range traced.layer {
		out.layer[k] = v
	}
	for _, b := range selfBuckets {
		out.layer["self."+b] = prof.shares[b]
	}
	overhead := map[string]float64{
		"untraced_p50_ms": plain.e2e["latency_p50_ms"],
		"traced_p50_ms":   traced.e2e["latency_p50_ms"],
		"profile_samples": float64(prof.samples),
	}
	out.layer["bench.trace_overhead_ratio"] = traced.e2e["latency_p50_ms"] / plain.e2e["latency_p50_ms"]
	out.info[name] = traced.info
	for _, w := range workloadTable {
		if w.name == name {
			continue
		}
		p, err := w.run(e, opts{traced: true, probe: true})
		if err != nil {
			return nil, nil, fmt.Errorf("probe %s: %w", w.name, err)
		}
		out.attempted += p.attempted
		out.failed += p.failed
		for _, f := range p.failures {
			out.failures = append(out.failures, w.name+": "+f)
		}
		for k, v := range p.layer {
			if _, ok := out.layer[k]; !ok {
				out.layer[k] = v
			}
		}
		out.info[w.name+" (probe)"] = p.info
	}
	return out, overhead, nil
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

const testRoot = ".."

func testEnv(t *testing.T, seed uint64) *env {
	t.Helper()
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	return &env{root: testRoot, seed: seed, cfg: cfg, tmp: t.TempDir()}
}

func TestGenerateDeterministic(t *testing.T) {
	e := testEnv(t, 1)
	progs, err := corpusPrograms(testRoot)
	if err != nil {
		t.Fatal(err)
	}
	a := generate(e.cfg.RunMix, progs, 7, time.Second)
	b := generate(e.cfg.RunMix, progs, 7, time.Second)
	if len(a.Requests) == 0 {
		t.Fatal("empty schedule")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	c := generate(e.cfg.RunMix, progs, 8, time.Second)
	if reflect.DeepEqual(a.Requests, c.Requests) {
		t.Fatal("different seeds produced the same schedule")
	}
	for _, class := range classes {
		if a.Classes[class] == 0 {
			t.Errorf("class %s never generated: %v", class, a.Classes)
		}
	}
	for i := 1; i < len(a.Requests); i++ {
		if a.Requests[i].Due < a.Requests[i-1].Due {
			t.Fatalf("request %d due before request %d", i, i-1)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i)
		}
		return s
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64 // 0 = refused
	}{
		{999, 0.99, 0},
		{1000, 0.99, 990},
		{99, 0.9, 0},
		{100, 0.9, 90},
		{19, 0.5, 0},
		{20, 0.5, 10},
	} {
		v, err := percentile(xs(tc.n), tc.q)
		if tc.want == 0 {
			if !errors.Is(err, errThinTail) {
				t.Errorf("p%g of %d samples = %g, want refusal", 100*tc.q, tc.n, v)
			}
			continue
		}
		if err != nil || v != tc.want {
			t.Errorf("p%g of %d samples = %g, %v; want %g", 100*tc.q, tc.n, v, err, tc.want)
		}
	}
}

func TestProfileAttribution(t *testing.T) {
	p, err := startProfile()
	if err != nil {
		t.Skip(err)
	}
	var sink uint64
	for end := time.Now().Add(time.Second); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			sink = sink*31 + uint64(i)
		}
	}
	shares, n, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	if n < 20 {
		t.Skipf("only %d profile samples", n)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 || shares["bench"] < 0.5 {
		t.Fatalf("shares %v (sum %g) over %d samples; want most in bench", shares, sum, n)
	}
	if got := bucketOf("infat/internal/cache.(*Cache).Access"); got != "cache" {
		t.Errorf("bucketOf cache method = %q", got)
	}
	if got := bucketOf("net/http.(*conn).serve"); got != "nethttp" {
		t.Errorf("bucketOf net/http = %q", got)
	}
	_ = sink
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which the benchmark's
// runner reads, in step with the metrics and workloads this command
// prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join(testRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, command has %v", names, workloadNames())
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, command prints %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), command %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestSmokeEveryWorkload runs each workload as the shortest traced probe
// and requires zero failed ops and every metric of its group.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e := testEnv(t, 3)
	for _, w := range workloadTable {
		t.Run(w.name, func(t *testing.T) {
			o, err := w.run(e, opts{seconds: 0.01, traced: true, probe: true})
			if err != nil {
				t.Fatal(err)
			}
			if o.attempted == 0 || o.failed != 0 {
				t.Fatalf("attempted %d, failed %d: %v", o.attempted, o.failed, o.failures)
			}
			for _, m := range endToEnd {
				if v, ok := o.e2e[m.name]; !ok || v <= 0 {
					t.Errorf("%s = %v (present %v), want > 0", m.name, v, ok)
				}
			}
			if len(o.layer) == 0 {
				t.Error("no per-layer metrics")
			}
		})
	}
}

// TestResultLine checks the printed contract on the quickest workload:
// the last line is one JSON object with exactly the four keys and every
// end-to-end metric.
func TestResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "fleet-warm", "--seed", "5", "--seconds", "0.2", "--root", testRoot}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Fatalf("result keys %v", keys)
	}
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("result %+v", res)
	}
	if code := run([]string{"--workload", "nope", "--root", testRoot}, &stdout, &stderr); code == 0 {
		t.Fatal("unknown workload accepted")
	}
}

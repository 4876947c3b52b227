package main

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"infat/internal/rt"
)

// hostInfo is the fingerprint printed with every result.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
	Dirty      *bool  `json:"dirty"`
	Seed       uint64 `json:"seed"`
}

func fingerprint(root string, seed uint64) hostInfo {
	h := hostInfo{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
		Seed:       seed,
	}
	h.Revision, h.Dirty = gitState(root)
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitState reads the revision and dirty flag of the checkout at root.
// Outside a git work tree (a plain source export) it reports "unknown";
// git is confined to root so it never reads a parent directory's
// repository.
func gitState(root string) (string, *bool) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return "unknown", nil
	}
	if _, err := os.Stat(filepath.Join(abs, ".git")); err != nil {
		return "unknown", nil
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", append([]string{"-C", abs}, args...)...)
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(abs), "GIT_OPTIONAL_LOCKS=0")
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	rev, err := git("rev-parse", "HEAD")
	if err != nil {
		return "unknown", nil
	}
	status, err := git("status", "--porcelain", "--untracked-files=no")
	if err != nil {
		return rev, nil
	}
	dirty := status != ""
	return rev, &dirty
}

// isolate returns the process to a cold state between workloads: every
// pooled runtime dropped, garbage collected and freed memory returned to
// the OS so the next workload's peak RSS is its own.
func isolate() {
	rt.DefaultPool.Drain()
	debug.FreeOSMemory()
}

// peakRSS tracks the resident-set high-water mark of one workload. It
// resets the kernel's mark through /proc/self/clear_refs and reads
// VmHWM; where clear_refs is not writable it samples VmRSS instead.
type peakRSS struct {
	method  string
	stop    chan struct{}
	done    sync.WaitGroup
	mu      sync.Mutex
	sampled uint64
}

func startPeakRSS() *peakRSS {
	p := &peakRSS{method: "clear_refs"}
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err == nil {
		return p
	}
	p.method = "sampled"
	p.stop = make(chan struct{})
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			p.sample()
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
		}
	}()
	return p
}

func (p *peakRSS) sample() {
	kb := procStatusKB("VmRSS")
	p.mu.Lock()
	if kb > p.sampled {
		p.sampled = kb
	}
	p.mu.Unlock()
}

// finish stops tracking and returns the peak in MB (10^6 bytes).
func (p *peakRSS) finish() float64 {
	if p.stop == nil {
		return float64(procStatusKB("VmHWM")) * 1024 / 1e6
	}
	close(p.stop)
	p.done.Wait()
	p.sample()
	return float64(p.sampled) * 1024 / 1e6
}

func procStatusKB(field string) uint64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		k, v, ok := bytes.Cut(line, []byte(":"))
		if !ok || string(k) != field {
			continue
		}
		n, _ := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(string(v)), " kB"), 10, 64)
		return n
	}
	return 0
}

// heapAllocBytes is the cumulative Go heap allocation of the process.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// gcPauseNs is the cumulative stop-the-world pause time.
func gcPauseNs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.PauseTotalNs
}

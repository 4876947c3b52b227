package main

import (
	"errors"
	"math"
	"runtime"
	"sort"
	"time"
)

// minTail is the number of samples that must lie beyond a tail
// percentile before the benchmark reports it: p99 needs 1000 samples.
const minTail = 10

// errThinTail is percentile's refusal: too few samples lie beyond the
// requested rank for it to mean anything.
var errThinTail = errors.New("perfbench: fewer than 10 samples beyond the percentile")

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample (mean of the middle two for even counts).
// It needs no tail samples and accepts any non-empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs, refusing with
// errThinTail when fewer than minTail samples lie beyond it.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, errThinTail
	}
	if math.Floor(float64(n)*(1-q)+1e-9) < minTail {
		return 0, errThinTail
	}
	s := sorted(xs)
	rank := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], nil
}

// p99 is the 0.99-quantile of xs, or NaN when percentile refuses it. A
// NaN metric is reported as not measured; it is never replaced by a lower
// quantile.
func p99(xs []float64) float64 {
	v, err := percentile(xs, 0.99)
	if err != nil {
		return math.NaN()
	}
	return v
}

// p99Info describes the p99 of xs for a detail line, which holds no NaN.
func p99Info(xs []float64) map[string]any {
	if v, err := percentile(xs, 0.99); err == nil {
		return map[string]any{"value": v, "samples": len(xs)}
	}
	return map[string]any{"refused": errThinTail.Error(), "samples": len(xs)}
}

// timeSetup measures a set-up step reps times and returns the median
// per-set-up seconds. fn performs one set-up and returns its untimed
// teardown. Set-ups shorter than minBatch are timed as a batch of
// repetitions (teardowns excluded) and divided, so a sub-millisecond
// set-up is never a single-shot reading. One untimed batch runs first,
// so the process's own first-use costs stay out of the samples; each
// batch starts after a GC.
func timeSetup(reps int, minBatch time.Duration, fn func() (func(), error)) (float64, []float64, error) {
	batchTime := func(n int) (time.Duration, error) {
		runtime.GC()
		var sum time.Duration
		for b := 0; b < n; b++ {
			t0 := time.Now()
			teardown, err := fn()
			sum += time.Since(t0)
			if err != nil {
				return 0, err
			}
			teardown()
		}
		return sum, nil
	}
	one, err := batchTime(1)
	if err != nil {
		return 0, nil, err
	}
	batch := 1
	if one > 0 && one < minBatch {
		batch = int(minBatch/one) + 1
	}
	samples := make([]float64, 0, reps)
	for r := -1; r < reps; r++ { // r == -1 is the untimed warming batch
		sum, err := batchTime(batch)
		if err != nil {
			return 0, nil, err
		}
		if r >= 0 {
			samples = append(samples, sum.Seconds()/float64(batch))
		}
	}
	return median(samples), samples, nil
}

// windows bins samples by the time their request was due into
// consecutive windows of fixed width.
type windows struct {
	width time.Duration
	bins  [][]float64
}

func (w *windows) add(at time.Duration, v float64) {
	i := int(at / w.width)
	for len(w.bins) <= i {
		w.bins = append(w.bins, nil)
	}
	w.bins[i] = append(w.bins[i], v)
}

// tailMedian is the median over windows of each window's q-quantile,
// counting only windows where percentile accepts the quantile. A
// host-level stall then moves the windows it hits, not the whole run.
func (w *windows) tailMedian(q float64) (float64, int) {
	var ps []float64
	for _, b := range w.bins {
		if v, err := percentile(b, q); err == nil {
			ps = append(ps, v)
		}
	}
	return median(ps), len(ps)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

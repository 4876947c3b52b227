package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuProfile is a running CPU profile held in memory.
type cpuProfile struct{ buf bytes.Buffer }

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns the flat (self) CPU share of every
// bucket in selfBuckets, and the number of samples behind them.
func (p *cpuProfile) stop() (map[string]float64, int, error) {
	pprof.StopCPUProfile()
	flat, n, err := flatByFunction(p.buf.Bytes())
	if err != nil {
		return nil, 0, err
	}
	shares := make(map[string]float64, len(selfBuckets))
	for _, b := range selfBuckets {
		shares[b] = 0
	}
	var total float64
	for fn, v := range flat {
		shares[bucketOf(fn)] += v
		total += v
	}
	if total > 0 {
		for b := range shares {
			shares[b] /= total
		}
	}
	return shares, n, nil
}

// bucketOf maps a profiled function name to its attribution bucket.
func bucketOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "infat/internal/"):
		pkg := strings.TrimPrefix(fn, "infat/internal/")
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, b := range selfBuckets {
			if b == pkg {
				return b
			}
		}
		return "other"
	case strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "infat/perfbench."):
		return "bench"
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/") || strings.HasPrefix(fn, "gcWriteBarrier"):
		return "goruntime"
	case strings.HasPrefix(fn, "net/http."):
		return "nethttp"
	case strings.HasPrefix(fn, "net.") || strings.HasPrefix(fn, "internal/poll.") ||
		strings.HasPrefix(fn, "syscall.") || strings.HasPrefix(fn, "internal/syscall/"):
		return "netio"
	case strings.HasPrefix(fn, "encoding/json."):
		return "json"
	}
	return "other"
}

// flatByFunction decodes a gzipped pprof CPU profile and sums each
// sample's CPU time onto its leaf function (the innermost inlined frame
// of the first location), returning the sums and the sample count. It
// reads only the handful of profile.proto fields that needs.
func flatByFunction(gz []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		count int64 // samples merged into this stack
		value int64 // their CPU nanoseconds
	}
	var (
		samples []sample
		locFn   = map[uint64]uint64{} // location id -> innermost function id
		fnName  = map[uint64]int64{}  // function id -> string index
		strs    []string
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			first := true
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1: // location_id
					ids, err := varints(w, v, b)
					if err == nil && first && len(ids) > 0 {
						s.leaf, first = ids[0], false
					}
					return err
				case 2: // value: [samples, cpu nanoseconds]
					vals, err := varints(w, v, b)
					if err == nil && len(vals) > 0 {
						s.count, s.value = int64(vals[0]), int64(vals[len(vals)-1])
					}
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id, fn uint64
			haveLine := false
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined function
					if haveLine {
						return nil
					}
					haveLine = true
					return eachField(b, func(f, w int, v uint64, b []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFn[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	flat := map[string]float64{}
	n := 0
	for _, s := range samples {
		n += int(s.count)
		name := "unknown"
		if si := fnName[locFn[s.leaf]]; si >= 0 && int(si) < len(strs) {
			name = strs[si]
		}
		flat[name] += float64(s.value)
	}
	return flat, n, nil
}

var errProto = errors.New("cpu profile: malformed protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(field, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// varints returns a repeated integer field's values, packed or not.
func varints(wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}

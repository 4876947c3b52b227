package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"time"

	"infat/internal/juliet"
)

// runMixConfig is the run-mix row of config.json.
type runMixConfig struct {
	RatePerS float64            `json:"rate_per_s"`
	Modes    []string           `json:"modes"`
	Shares   map[string]float64 `json:"shares"`
}

// recentWindow is how many of the latest fresh sources known and repeat
// requests draw from: few enough that every one is still in the
// server's memo store (2048 entries) and the MiniC interner (1024).
const recentWindow = 256

// Request classes of the run-mix generator.
const (
	classFresh  = "fresh"  // unique source: compile, lower, run
	classKnown  = "known"  // source already sent, in a mode it was not: interner hit, memo miss
	classRepeat = "repeat" // exact (source, mode) already sent: memo replay
)

var classes = []string{classFresh, classKnown, classRepeat}

// program is one base MiniC program of the corpus. Bad marks a Juliet
// case with a triggered spatial error.
type program struct {
	Name   string
	Src    string
	Juliet bool
	Bad    bool
}

// corpusPrograms is the base corpus: every generated Juliet case plus
// the MiniC examples under testdata/.
func corpusPrograms(root string) ([]program, error) {
	var ps []program
	for _, c := range juliet.Generate() {
		ps = append(ps, program{Name: c.Name, Src: c.Src, Juliet: true, Bad: c.Bad})
	}
	files, err := filepath.Glob(filepath.Join(root, "testdata", "*.c"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		ps = append(ps, program{Name: filepath.Base(f), Src: string(b)})
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no MiniC programs under %s", filepath.Join(root, "testdata"))
	}
	return ps, nil
}

// request is one scheduled /v1/run submission.
type request struct {
	Due    time.Duration // offset from the start of the load
	Class  string
	Base   int // index of the base program (its expected behaviour)
	Source string
	Mode   string
}

// schedule is the generated open-loop load: requests in due order.
type schedule struct {
	Requests []request
	Classes  map[string]int // generated count per class
}

// generate builds the seeded request schedule for the given duration:
// arrivals at the configured rate, evenly spaced with a seeded jitter of
// up to a fifth of the gap either way (Poisson bursts would make the
// tail a property of the seed rather than of the server), each a fresh, known or repeat
// request drawn with the configured shares. A fresh source is a base
// program with a unique trailing comment, so it compiles anew but must
// behave exactly as its base. Known and repeat requests draw from the
// last recentWindow sources, which keeps them inside the server's memo
// store and the MiniC interner. When no eligible earlier source exists
// (early in the schedule) the request falls back to fresh.
func generate(cfg runMixConfig, progs []program, seed uint64, d time.Duration) schedule {
	rng := rand.New(rand.NewPCG(seed, 0x5eed0fb1a5))
	type sent struct {
		source string
		base   int
		modes  map[string]bool
	}
	var recent []*sent
	s := schedule{Classes: map[string]int{}}
	fresh := 0
	total := cfg.Shares[classFresh] + cfg.Shares[classKnown] + cfg.Shares[classRepeat]
	gap := 1 / cfg.RatePerS
	for n := 0; ; n++ {
		t := (float64(n) + 0.5 + 0.4*(rng.Float64()-0.5)) * gap
		if t >= d.Seconds() {
			break
		}
		class := classRepeat
		switch u := rng.Float64() * total; {
		case u < cfg.Shares[classFresh]:
			class = classFresh
		case u < cfg.Shares[classFresh]+cfg.Shares[classKnown]:
			class = classKnown
		}
		var r request
		switch class {
		case classKnown:
			for tries := 0; tries < 4 && len(recent) > 0 && r.Source == ""; tries++ {
				src := recent[rng.IntN(len(recent))]
				var unused []string
				for _, m := range cfg.Modes {
					if !src.modes[m] {
						unused = append(unused, m)
					}
				}
				if len(unused) > 0 {
					r = request{Class: classKnown, Base: src.base, Source: src.source, Mode: unused[rng.IntN(len(unused))]}
					src.modes[r.Mode] = true
				}
			}
		case classRepeat:
			for tries := 0; tries < 4 && len(recent) > 0 && r.Source == ""; tries++ {
				src := recent[rng.IntN(len(recent))]
				var used []string
				for _, m := range cfg.Modes {
					if src.modes[m] {
						used = append(used, m)
					}
				}
				if len(used) > 0 {
					r = request{Class: classRepeat, Base: src.base, Source: src.source, Mode: used[rng.IntN(len(used))]}
				}
			}
		}
		if r.Source == "" {
			base := rng.IntN(len(progs))
			fresh++
			r = request{Class: classFresh, Base: base, Mode: cfg.Modes[rng.IntN(len(cfg.Modes))],
				Source: fmt.Sprintf("%s\n// run-mix %d/%d\n", progs[base].Src, seed, fresh)}
			recent = append(recent, &sent{source: r.Source, base: base, modes: map[string]bool{r.Mode: true}})
			if len(recent) > recentWindow {
				recent = recent[1:]
			}
		}
		r.Due = time.Duration(math.Round(t * 1e9))
		s.Requests = append(s.Requests, r)
		s.Classes[r.Class]++
	}
	return s
}

package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
)

// Metric is one named measurement.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Host is the provenance block every report carries.
type Host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func hostInfo() Host {
	h := Host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     "unknown (not built from a git checkout)",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// cpuTimes returns the host's total and stolen CPU time in clock ticks
// (first line of /proc/stat). Steal is time the hypervisor ran other
// guests while this one had work; the report gives its share during
// the timed phase, because it explains runs that are slow throughout.
func cpuTimes() (total, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		n, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 8 {
			steal = n
		}
	}
	return total, steal
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// Tally counts operations across every phase of a run: each request
// sent, and each answer compared. A failed, refused (503/504) or
// mismatched operation counts as failed; mismatches also make the run
// incorrect.
type Tally struct {
	attempted, failed, mismatched atomic.Int64
}

func (t *Tally) Op(ok bool) {
	t.attempted.Add(1)
	if !ok {
		t.failed.Add(1)
	}
}

// Check counts one comparison of two answers that must be equal.
func (t *Tally) Check(equal bool) {
	t.attempted.Add(1)
	if !equal {
		t.failed.Add(1)
		t.mismatched.Add(1)
	}
}

// Report is the full record of one run: provenance, sample counts,
// metrics and notes. It goes to standard error and to a file; the last
// line of standard output is Summary.
type Report struct {
	Workload string            `json:"workload"`
	Why      string            `json:"why"`
	Seed     int64             `json:"seed"`
	Traced   bool              `json:"traced"`
	Seconds  float64           `json:"seconds"`
	Host     Host              `json:"host"`
	Daemon   []string          `json:"daemon_flags,omitempty"`
	Dataset  map[string]int    `json:"dataset"`
	Samples  map[string]int    `json:"samples"`
	Metrics  map[string]Metric `json:"metrics"`
	Extra    map[string]any    `json:"extra,omitempty"`
	Notes    []string          `json:"notes,omitempty"`

	Attempted  int64 `json:"attempted"`
	Failed     int64 `json:"failed"`
	Mismatched int64 `json:"mismatched"`
}

func newReport(env *Env) *Report {
	return &Report{
		Workload: env.W.Name,
		Why:      env.W.Why,
		Seed:     env.Seed,
		Traced:   env.Traced,
		Seconds:  env.Seconds.Seconds(),
		Host:     hostInfo(),
		Dataset:  map[string]int{"bloggers": env.Scale.Bloggers, "base_triples": env.BaseTriples},
		Samples:  map[string]int{},
		Metrics:  map[string]Metric{},
		Extra:    map[string]any{},
	}
}

func (r *Report) Set(name, unit string, v float64) { r.Metrics[name] = Metric{Value: v, Unit: unit} }

func (r *Report) Note(s string) { r.Notes = append(r.Notes, s) }

func (r *Report) finish(t *Tally) {
	r.Attempted = t.attempted.Load()
	r.Failed = t.failed.Load()
	r.Mismatched = t.mismatched.Load()
}

// Summary is the one-line result contract.
type Summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func (r *Report) Summary() Summary {
	return Summary{Correct: r.Mismatched == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
}

func (r *Report) JSON() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(err) // maps of plain values: cannot fail
	}
	return b
}

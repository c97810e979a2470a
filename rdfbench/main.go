// Command rdfbench is rdfcube's end-to-end benchmark. It generates a
// seeded blogger dataset with internal/datagen, drives an rdfcubed
// daemon (a child process) over its HTTP API with one of three
// closed-loop workloads, checks every answer, and reports end-to-end
// metrics. With -trace 1 it instead replays the same seeded request
// sequence against an in-process server with tracing on and reports a
// per-layer breakdown.
//
// Usage (from the repository root, after building the daemon):
//
//	rdfbench -workload cube-explore -seed 1 -seconds 10 -trace 0 \
//	         -daemon .bench_build/bin/rdfcubed -work .bench_build
//
// The human-readable report goes to standard error (and to
// <work>/reports/); the last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics. The exit code
// is non-zero when any answer mismatched or the run could not complete.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
	"time"
)

// Env is one run's configuration.
type Env struct {
	W           Workload
	Seed        int64
	Seconds     time.Duration
	Traced      bool
	Scale       Scale
	Daemon      string // rdfcubed binary (untraced runs)
	Work        string // this run's private working directory
	DataPath    string
	BaseTriples int
}

func main() {
	workload := flag.String("workload", "", "workload: cube-explore, cold-cubes or ingest-mix")
	seed := flag.Int64("seed", 1, "seed for the dataset and the request sequence")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end run against the daemon; 1: traced in-process run with per-layer metrics")
	daemon := flag.String("daemon", ".bench_build/bin/rdfcubed", "rdfcubed binary (end-to-end runs)")
	work := flag.String("work", ".bench_build", "directory for per-run files and reports")
	flag.Parse()

	w, ok := workloadByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "rdfbench: unknown -workload %q\n", *workload)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "rdfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	summary, err := run(ctx, &Env{
		W:       w,
		Seed:    *seed,
		Seconds: time.Duration(*seconds * float64(time.Second)),
		Traced:  *trace == 1,
		Scale:   DefaultScale,
		Daemon:  *daemon,
		Work:    *work,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rdfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rdfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !summary.Correct {
		os.Exit(1)
	}
}

// run generates the dataset, runs the workload, writes the report and
// returns the summary line. Per-run files are removed on every path.
func run(ctx context.Context, env *Env) (Summary, error) {
	runDir, err := os.MkdirTemp(env.Work, "run-")
	if err != nil {
		return Summary{}, err
	}
	defer os.RemoveAll(runDir)
	env.Work = runDir
	env.DataPath = filepath.Join(runDir, "data.nt")
	if env.BaseTriples, err = writeDataset(env.DataPath, env.Seed, env.Scale.Bloggers); err != nil {
		return Summary{}, fmt.Errorf("generating dataset: %w", err)
	}

	var rep *Report
	if env.Traced {
		rep, err = runTraced(ctx, env)
	} else {
		rep, err = runE2E(ctx, env)
	}
	if err != nil {
		return Summary{}, err
	}
	want := e2eMetrics
	if env.Traced {
		want = layerMetrics
	}
	for _, m := range want {
		// A run that found a wrong answer may have stopped measuring.
		if _, ok := rep.Metrics[m]; !ok && rep.Mismatched == 0 {
			return Summary{}, fmt.Errorf("metric %s was not measured", m)
		}
	}
	for name := range rep.Metrics {
		if !slices.Contains(want, name) {
			return Summary{}, fmt.Errorf("metric %s is not declared", name)
		}
	}

	out := rep.JSON()
	os.Stderr.Write(append(out, '\n'))
	reports := filepath.Join(filepath.Dir(runDir), "reports")
	if err := os.MkdirAll(reports, 0o755); err == nil {
		name := fmt.Sprintf("%s-seed%d-trace%t.json", env.W.Name, env.Seed, env.Traced)
		if err := os.WriteFile(filepath.Join(reports, name), out, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "rdfbench: writing report:", err)
		}
	}
	return rep.Summary(), nil
}

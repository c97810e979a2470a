package main

import (
	"context"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs every workload end to end and traced at a tiny data
// size: the daemon is built from this tree, every answer is checked,
// and every declared metric must be reported. The ingest-mix writer
// crosses the compaction threshold once before the crash recovery.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	bin := filepath.Join(t.TempDir(), "rdfcubed")
	build := exec.Command("go", "build", "-o", bin, "./cmd/rdfcubed")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building rdfcubed: %v\n%s", err, out)
	}
	scale := Scale{Bloggers: 300, ProbeBatch: 1, ProbeInserts: 20, WriterBatch: 40, WriterInserts: 40}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name + map[bool]string{false: "/e2e", true: "/traced"}[traced]
			t.Run(name, func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				defer cancel()
				s, err := run(ctx, &Env{
					W: w, Seed: 7, Seconds: time.Second, Traced: traced,
					Scale: scale, Daemon: bin, Work: t.TempDir(),
				})
				if err != nil {
					t.Fatal(err)
				}
				if !s.Correct || s.Failed != 0 || s.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", s.Correct, s.Attempted, s.Failed)
				}
				want := e2eMetrics
				if traced {
					want = layerMetrics
				}
				if len(s.Metrics) != len(want) {
					t.Errorf("%d metrics reported, want %d", len(s.Metrics), len(want))
				}
				if !traced {
					for _, m := range want {
						if s.Metrics[m].Value <= 0 {
							t.Errorf("%s = %v, want > 0", m, s.Metrics[m].Value)
						}
					}
				}
			})
		}
	}
}

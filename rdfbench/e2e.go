package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"rdfcube/internal/server"
)

// e2eMetrics are the end-to-end metrics of an untraced run, as declared
// in BENCHMARK.json.
var e2eMetrics = []string{
	"setup_s", "query_p50_ms", "query_p90_ms", "queries_per_s",
	"insert_p50_ms", "peak_rss_mb", "recover_s", "ok_frac",
}

// boots is how many times a run sets the daemon up; setup_s is their
// median.
const boots = 5

// runner is what both kinds of run share: the report, the tally and a
// client of the server under test.
type runner struct {
	env   *Env
	rep   *Report
	tally Tally
	c     *Client
	mu    sync.Mutex // guards notes from worker goroutines
}

// e2eRun is the state of one untraced run.
type e2eRun struct {
	runner
	d      *Daemon // the live daemon, killed on every exit path
	probes []Round // write-probe rounds (in-memory workloads)
	probed Latencies
}

// queryWindows is how many equal windows the timed phase is cut into
// for the query metrics; each is the median over the windows.
const queryWindows = 3

// probeGap spaces the write probe's inserts, so that a round of 100
// spans a second: a scheduling hiccup of the host then touches a small
// share of a round's inserts rather than a whole 0.15 s burst.
const probeGap = 10 * time.Millisecond

func (r *runner) note(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.rep.Notes) < 20 {
		r.rep.Note(fmt.Sprintf(format, args...))
	}
}

func (r *e2eRun) args(dataDir string) []string {
	args := []string{"-data", r.env.DataPath, "-saturate"}
	if r.env.W.Mapped {
		args = append(args, "-data-dir", dataDir, "-mmap")
	}
	return args
}

// boot starts a daemon and brings it to its first answerable query:
// exec → /readyz 200 → POST /materialize (materialized workloads).
func (r *e2eRun) boot(ctx context.Context, dataDir string) (time.Duration, error) {
	t0 := time.Now()
	d, err := StartDaemon(ctx, r.env.Daemon, filepath.Join(r.env.Work, "daemon.log"), r.args(dataDir), 150*time.Second)
	if err != nil {
		return 0, err
	}
	r.d, r.c = d, NewClient(d.Addr, 4)
	r.rep.Daemon = d.Args
	if r.env.W.Materialize {
		body, _ := json.Marshal(schemaRequest())
		res := r.c.Do(ctx, http.MethodPost, "/materialize", body)
		r.tally.Op(res.OK())
		if !res.OK() {
			return 0, fmt.Errorf("POST /materialize: %s", res)
		}
		var mr server.MaterializeResponse
		if err := json.Unmarshal(res.Body, &mr); err != nil {
			return 0, fmt.Errorf("POST /materialize response: %w", err)
		}
		r.rep.Dataset["instance_triples"] = mr.InstanceTriples
	}
	return time.Since(t0), nil
}

func (r *e2eRun) kill() {
	if r.c != nil {
		r.c.Close()
	}
	r.d.Kill()
	r.d, r.c = nil, nil
}

func runE2E(ctx context.Context, env *Env) (*Report, error) {
	r := &e2eRun{runner: runner{env: env, rep: newReport(env)}}
	defer func() { r.d.Kill() }()
	if err := r.run(ctx); err != nil {
		return nil, err
	}
	r.rep.finish(&r.tally)
	r.rep.Extra["failed_frac"] = Ratio(float64(r.rep.Failed), float64(r.rep.Attempted))
	r.rep.Set("ok_frac", "ratio", 1-Ratio(float64(r.rep.Failed), float64(r.rep.Attempted)))
	return r.rep, nil
}

func (r *e2eRun) run(ctx context.Context) error {
	env, rep := r.env, r.rep
	var setups, recovers []float64
	dataDir := filepath.Join(env.Work, "data")

	// Set-up samples. A mapped daemon boots on a fresh data-dir each
	// time and keeps the last; an in-memory daemon serves from the
	// first boot, and its later boots double as crash-recovery samples
	// (without a data-dir, recovery is a reload of the seed file).
	first := boots - 1
	if !env.W.Mapped {
		first = 0
	}
	for i := 0; i <= first; i++ {
		dir := fmt.Sprintf("%s%d", dataDir, i)
		s, err := r.boot(ctx, dir)
		if err != nil {
			return fmt.Errorf("boot: %w", err)
		}
		setups = append(setups, s.Seconds())
		if i < first {
			r.kill()
			os.RemoveAll(dir)
		}
	}

	if !env.W.Writer {
		if err := r.probe(ctx); err != nil {
			return err
		}
	}
	ph, err := r.timed(ctx)
	if err != nil {
		return err
	}
	if st, err := r.d.Status("VmHWM"); err == nil {
		rep.Set("peak_rss_mb", "MiB", st["VmHWM"]/1024)
	} else {
		return err
	}
	if err := r.check(ctx, ph); err != nil {
		return err
	}

	if env.W.Mapped {
		rec, err := r.recoverMapped(ctx)
		if err != nil {
			return err
		}
		recovers = rec
	} else {
		for i := 1; i < boots; i++ {
			r.kill()
			s, err := r.boot(ctx, "")
			if err != nil {
				return fmt.Errorf("restart: %w", err)
			}
			setups = append(setups, s.Seconds())
			recovers = append(recovers, s.Seconds())
			if err := r.probe(ctx); err != nil {
				return err
			}
		}
	}
	r.kill()

	rep.Set("setup_s", "s", median(setups))
	if len(recovers) > 0 { // none when the daemon could not restart
		rep.Set("recover_s", "s", median(recovers))
	}
	rep.Samples["setup"] = len(setups)
	rep.Samples["recover"] = len(recovers)
	rep.Extra["setup_s_samples"] = setups
	rep.Extra["recover_s_samples"] = recovers

	q := ph.queries
	qw := windows(ph.stamps, ph.elapsed, queryWindows)
	p50, p90, perSec := medianRound(qw)
	rep.Set("query_p50_ms", "ms", p50)
	rep.Set("query_p90_ms", "ms", p90)
	rep.Set("queries_per_s", "1/s", perSec)
	ins, insRounds := ph.inserts, []Round{roundOf(ph.inserts, ph.insertTriples, ph.insertElapsed)}
	if !env.W.Writer {
		ins, insRounds = r.probed, r.probes
	}
	p50, p90, perSec = medianRound(insRounds)
	rep.Set("insert_p50_ms", "ms", p50)
	// Reported, not declared: across ten seeds on a shared 2-core host
	// their spread exceeded the largest bound a metric may have (README).
	rep.Extra["insert_p90_ms"] = p90
	rep.Extra["insert_triples_per_s"] = perSec
	rep.Samples["query"] = len(q)
	rep.Samples["query_windows"] = len(qw)
	rep.Samples["insert"] = len(ins)
	rep.Samples["insert_rounds"] = len(insRounds)
	rep.Extra["query_windows_p50_p90_per_s"] = roundsTable(qw)
	rep.Extra["insert_rounds_p50_p90_per_s"] = roundsTable(insRounds)
	rep.Extra["strategies"] = ph.strategies
	steps := map[string][3]float64{}
	for k, v := range ph.byStep {
		steps[k] = [3]float64{float64(len(v)), Ms(v.Percentile(0.5)), Ms(v.Percentile(0.9))}
	}
	rep.Extra["query_by_step_n_p50_p90"] = steps
	rep.Extra["query_ms_sorted"] = q.sortedMs()
	rep.Extra["insert_ms_sorted"] = ins.sortedMs()
	if env.W.Mapped {
		rep.Extra["wal_flush"] = "one fsync per insert batch (-wal-group-commit 0, the daemon default)"
	}
	return nil
}

// roundsTable lists rounds for the report: p50 and p90 in ms, rate.
func roundsTable(rs []Round) [][3]float64 {
	out := make([][3]float64, len(rs))
	for i, r := range rs {
		out[i] = [3]float64{Ms(r.P50), Ms(r.P90), r.PerSec}
	}
	return out
}

// probe settles the daemon and runs one round of the write probe: a
// fixed sequence of inserts into the serving instance while the
// registry is still empty, so insert latency there is the bare delta
// write path. Every round sends the same batches, to a freshly booted
// daemon.
func (r *e2eRun) probe(ctx context.Context) error {
	env := r.env
	if err := r.d.Settle(ctx); err != nil {
		return err
	}
	batches := NewBatches(env.Seed, env.W.Traffic(env.Seed).Class, "probe", env.Scale.ProbeBatch)
	var lat Latencies
	var busy time.Duration
	triples := 0
	for i := 0; i < env.Scale.ProbeInserts; i++ {
		time.Sleep(probeGap)
		res := r.c.Insert(ctx, batches.Next())
		r.tally.Op(res.OK())
		if !res.OK() {
			r.note("probe insert: %s", res)
			continue
		}
		lat = append(lat, res.Elapsed)
		busy += res.Elapsed
		triples += env.Scale.ProbeBatch * TriplesPerBlogger
	}
	r.probes = append(r.probes, roundOf(lat, triples, busy))
	r.probed = append(r.probed, lat...)
	return ctx.Err()
}

// phase is what the timed phase observed.
type phase struct {
	queries, inserts Latencies
	stamps           []Sample // every query, for the windowed metrics
	insertTriples    int
	elapsed          time.Duration // query clients' wall time
	insertElapsed    time.Duration // insert clients' wall time
	strategies       map[string]int
	byStep           map[string]Latencies // query latencies by session step
	answers          map[string][]byte    // first answer per distinct request
	order            []Req                // distinct requests in first-seen order
}

func (p *phase) keep(req Req, body []byte) {
	if _, ok := p.answers[string(req.Body)]; !ok {
		p.answers[string(req.Body)] = body
		p.order = append(p.order, req)
	}
}

// timed warms the daemon, then runs the workload's closed loops: for
// env.Seconds, or, with a writer, until it has sent its fixed
// Scale.WriterInserts batches, so that the phase crosses the compaction
// threshold the same number of times on any host.
func (r *e2eRun) timed(ctx context.Context) (*phase, error) {
	env := r.env
	ph := &phase{strategies: map[string]int{}, byStep: map[string]Latencies{}, answers: map[string][]byte{}}
	tf := env.W.Traffic(env.Seed)

	// Warm-up: register the pool's views, and (with a writer) let the
	// first write build their incremental state, before timing.
	for _, q := range tf.Warm {
		res := r.c.Query(ctx, q.Body)
		r.tally.Op(res.OK())
		if !res.OK() {
			return nil, fmt.Errorf("warm-up query %s/%s: %s", q.Label, q.Step, res)
		}
	}
	if env.W.Writer {
		res := r.c.Insert(ctx, NewBatches(env.Seed, tf.Class, "warm", env.Scale.WriterBatch).Next())
		r.tally.Op(res.OK())
		if !res.OK() {
			return nil, fmt.Errorf("warm-up insert: %s", res)
		}
	}

	if err := r.d.Settle(ctx); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(env.Seconds)
	var writing atomic.Bool
	writing.Store(env.W.Writer)
	over := func() bool {
		if env.W.Writer {
			return !writing.Load()
		}
		return time.Now().After(deadline)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	total0, steal0 := cpuTimes()
	start := time.Now()
	for i := 0; i < env.W.Readers; i++ {
		next := tf.Reader(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat Latencies
			var stamps []Sample
			type got struct {
				req  Req
				body []byte
			}
			var seen []got // first answer of each distinct request
			first := map[string]bool{}
			strat := map[string]int{}
			byStep := map[string]Latencies{}
		loop:
			for {
				for _, q := range next() {
					if over() || ctx.Err() != nil {
						break loop
					}
					res := r.c.Query(ctx, q.Body)
					r.tally.Op(res.OK())
					if !res.OK() {
						r.note("query %s/%s: %s", q.Label, q.Step, res)
						continue
					}
					lat = append(lat, res.Elapsed)
					stamps = append(stamps, Sample{End: time.Since(start), Lat: res.Elapsed})
					byStep[q.Step] = append(byStep[q.Step], res.Elapsed)
					strat[strategyOf(res.Body)]++
					if !first[string(q.Body)] {
						first[string(q.Body)] = true
						seen = append(seen, got{q, res.Body})
					}
				}
			}
			mu.Lock()
			defer mu.Unlock()
			ph.queries = append(ph.queries, lat...)
			ph.stamps = append(ph.stamps, stamps...)
			for k, v := range strat {
				ph.strategies[k] += v
			}
			for k, v := range byStep {
				ph.byStep[k] = append(ph.byStep[k], v...)
			}
			for _, g := range seen {
				ph.keep(g.req, g.body)
			}
		}()
	}
	if env.W.Writer {
		batches := NewBatches(env.Seed, tf.Class, "w", env.Scale.WriterBatch)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer writing.Store(false)
			var lat Latencies
			n := 0
			for i := 0; i < env.Scale.WriterInserts && ctx.Err() == nil; i++ {
				res := r.c.Insert(ctx, batches.Next())
				r.tally.Op(res.OK())
				if !res.OK() {
					r.note("insert: %s", res)
					continue
				}
				lat = append(lat, res.Elapsed)
				n += env.Scale.WriterBatch * TriplesPerBlogger
			}
			elapsed := time.Since(start)
			mu.Lock()
			defer mu.Unlock()
			ph.inserts, ph.insertTriples, ph.insertElapsed = lat, n, elapsed
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	total1, steal1 := cpuTimes()
	r.rep.Extra["cpu_steal_frac_timed"] = Ratio(float64(steal1-steal0), float64(total1-total0))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return ph, nil
}

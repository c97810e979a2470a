package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"rdfcube/internal/agg"
	"rdfcube/internal/algebra"
	"rdfcube/internal/bgp"
	"rdfcube/internal/core"
	"rdfcube/internal/dict"
	"rdfcube/internal/incr"
	"rdfcube/internal/nt"
	"rdfcube/internal/obs"
	"rdfcube/internal/rdf"
	"rdfcube/internal/rdfs"
	"rdfcube/internal/server"
	"rdfcube/internal/sparql"
	"rdfcube/internal/store"
)

// layerMetrics are the per-layer metrics of a traced run, as declared
// in BENCHMARK.json. Time figures are self times (a span minus its
// children) averaged per operation; see README.md for each definition.
var layerMetrics = []string{
	"server.render_ms", "server.wire_ms", "server.resp_kb",
	"viewreg.answer_ms", "viewreg.hit_frac",
	"viewreg.strategy.cached", "viewreg.strategy.dice-rewrite", "viewreg.strategy.drillout-rewrite",
	"viewreg.strategy.drillin-rewrite", "viewreg.strategy.direct", "viewreg.bytes_mb",
	"core.classifier_ms", "core.measure_ms", "core.pres_ms", "core.answer_from_pres_ms", "core.rewrite_ms", "core.alloc_mb",
	"algebra.join_ms", "algebra.project_ms", "algebra.group_ms", "algebra.rows_in", "algebra.alloc_mb",
	"bgp.eval_ms", "bgp.rows_scanned", "bgp.rows_produced", "bgp.produced_per_scanned", "bgp.seeks", "bgp.alloc_mb",
	"store.freeze_ms", "store.open_ms", "store.rss_anon_mb", "store.rss_file_mb",
	"incr.insert_ms", "incr.new_facts",
	"unattributed_frac", "trace_overhead_ms",
}

// durableLayerMetrics are measured by every traced run but only move on
// ingest-mix, the one workload with writes under maintained views, a
// data-dir, an mmap'd base and compactions: on the in-memory workloads
// they read 0, or a fixed count (store.delta_peak). Since ingest-mix is
// not in BENCHMARK.json, they are not declared there; the report keeps
// them under extra.durable_layer_metrics.
var durableLayerMetrics = []string{
	"viewreg.evictions", "viewreg.invalidations", "viewreg.maintain_ms",
	"store.compactions", "store.delta_peak", "store.block_cache_hit_frac", "store.term_cache_hit_frac",
	"persist.wal_append_ms", "persist.fsyncs", "persist.wal_bytes_per_triple", "persist.checkpoint_ms", "persist.replay_ms",
}

const mib = 1 << 20

// tracedRun replays a workload's seeded request sequence against an
// in-process server (the same server.Open(...).Handler() the daemon
// serves, over a loopback listener) and attributes request time to
// layers from the spans the program emits, plus spans the benchmark
// records around its own calls into core and algebra.
type tracedRun struct {
	runner
	srv *server.Server
	hs  *http.Server
	cfg server.Config
}

// opRec is one replayed request.
type opRec struct {
	insert  bool
	traced  bool
	elapsed time.Duration
	root    *obs.SpanDump // nil unless traced
	bytes   int
	cost    map[string]int64 // X-RDFCube-Cost fields
	delta   int              // insert response: delta overlay size
	triples int              // insert: triples sent
	probe   bool             // insert of the write probe, before the replay
}

func runTraced(ctx context.Context, env *Env) (*Report, error) {
	r := &tracedRun{runner: runner{env: env, rep: newReport(env)}}
	defer r.stop()
	if err := r.run(ctx); err != nil {
		return nil, err
	}
	r.rep.finish(&r.tally)
	durable := map[string]Metric{}
	for _, name := range durableLayerMetrics {
		if m, ok := r.rep.Metrics[name]; ok {
			durable[name] = m
			delete(r.rep.Metrics, name)
		}
	}
	r.rep.Extra["durable_layer_metrics"] = durable
	return r.rep, nil
}

func (r *tracedRun) stop() {
	if r.hs != nil {
		r.hs.Close()
		r.hs = nil
	}
	if r.c != nil {
		r.c.Close()
	}
	if r.srv != nil {
		r.srv.Close()
		r.srv = nil
	}
}

// serve starts srv's handler on a loopback listener.
func (r *tracedRun) serve(srv *server.Server) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.srv = srv
	r.hs = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go r.hs.Serve(ln) // returns when stop closes the server
	r.c = NewClient(ln.Addr().String(), 2)
	return nil
}

func (r *tracedRun) run(ctx context.Context) error {
	env, rep := r.env, r.rep

	// Set-up, as rdfcubed -data -saturate [-data-dir -mmap] does it.
	base, err := loadGraph(env.DataPath)
	if err != nil {
		return err
	}
	t0 := time.Now()
	base.Freeze()
	rep.Set("store.freeze_ms", "ms", Ms(time.Since(t0)))
	r.cfg = server.Config{
		MaxViewBytes:         256 << 20,
		BackgroundCompaction: true,
		Logger:               slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	rep.Daemon = []string{"in-process server.Open", "-max-view-mb", "256", "-background-compact"}
	if env.W.Mapped {
		r.cfg.DataDir = filepath.Join(env.Work, "data")
		r.cfg.Mapped = true
		rep.Daemon = append(rep.Daemon, "-data-dir", r.cfg.DataDir, "-mmap")
	}
	t0 = time.Now()
	srv, err := server.Open(base, r.cfg)
	if err != nil {
		return fmt.Errorf("opening server: %w", err)
	}
	rep.Set("store.open_ms", "ms", Ms(time.Since(t0)))
	base = nil
	if err := r.serve(srv); err != nil {
		return err
	}
	if env.W.Materialize {
		body, _ := json.Marshal(schemaRequest())
		res := r.c.Do(ctx, http.MethodPost, "/materialize", body)
		r.tally.Op(res.OK())
		if !res.OK() {
			return fmt.Errorf("POST /materialize: %s", res)
		}
		var mr server.MaterializeResponse
		if err := json.Unmarshal(res.Body, &mr); err != nil {
			return fmt.Errorf("POST /materialize response: %w", err)
		}
		rep.Dataset["instance_triples"] = mr.InstanceTriples
	}
	tracer := srv.Tracer() // off until a request below turns it on

	tf := env.W.Traffic(env.Seed)
	var ops []opRec
	runtime.GC() // as the untraced run settles the daemon before measuring
	if !env.W.Writer {
		probe := NewBatches(env.Seed, tf.Class, "probe", env.Scale.ProbeBatch)
		tracer.SetEnabled(true)
		for i := 0; i < env.Scale.ProbeInserts; i++ {
			res := r.c.Insert(ctx, probe.Next())
			r.tally.Op(res.OK())
			if res.OK() {
				rec := r.recordInsert(res, env.Scale.ProbeBatch)
				rec.probe = true
				ops = append(ops, rec)
			}
		}
		tracer.SetEnabled(false)
	}
	for _, q := range tf.Warm {
		res := r.c.Query(ctx, q.Body)
		r.tally.Op(res.OK())
		if !res.OK() {
			return fmt.Errorf("warm-up query %s/%s: %s", q.Label, q.Step, res)
		}
	}
	if env.W.Writer {
		r.tally.Op(r.c.Insert(ctx, NewBatches(env.Seed, tf.Class, "warm", env.Scale.WriterBatch).Next()).OK())
	}

	before, err := r.c.Metrics(ctx)
	if err != nil {
		return err
	}
	runtime.GC()
	ph := &phase{answers: map[string][]byte{}}
	replayed, err := r.replay(ctx, tf, ph)
	if err != nil {
		return err
	}
	ops = append(ops, replayed...)
	after, err := r.c.Metrics(ctx)
	if err != nil {
		return err
	}
	if st, err := procStatus("/proc/self/status", "RssAnon", "RssFile"); err == nil {
		rep.Set("store.rss_anon_mb", "MiB", st["RssAnon"]/1024)
		rep.Set("store.rss_file_mb", "MiB", st["RssFile"]/1024)
	} else {
		return err
	}
	r.fromMetrics(before, after, ops)
	r.fromSpans(ops)

	// Correctness, as in the end-to-end run.
	if err := r.check(ctx, ph); err != nil {
		return err
	}

	// Recovery timing on the durable workload: close the server without
	// a checkpoint, as the replay left it, and reopen its data-dir, which
	// replays the WAL written since the last compaction. A data-dir that
	// does not reopen lost acknowledged inserts: the run is incorrect and
	// stops here.
	rep.Set("persist.replay_ms", "ms", 0)
	if env.W.Mapped {
		r.stop()
		t0 := time.Now()
		srv, err := server.Open(nil, r.cfg)
		if err != nil {
			r.tally.Check(false)
			r.note("RECOVERY FAILED reopening the data-dir: %v", err)
			delete(rep.Metrics, "persist.replay_ms")
			return nil
		}
		rep.Set("persist.replay_ms", "ms", Ms(time.Since(t0)))
		if err := r.serve(srv); err != nil {
			return err
		}
	}

	// Core and algebra have no spans of their own: time their calls here,
	// on the serving instance, with the server idle.
	if err := r.probeCore(ctx, tf); err != nil {
		return err
	}
	return r.probeIncr(tf)
}

// loadGraph reads an N-Triples file into a store and saturates it (the
// caller freezes it, timed).
func loadGraph(path string) (*store.Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st := store.New()
	rd := nt.NewReader(f)
	for {
		t, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("reading %s: %w", path, err)
		}
		st.Add(t)
	}
	rdfs.Saturate(st)
	return st, nil
}

// replay runs the workload's request sequence from one goroutine:
// readers' requests in turn for env.Seconds, or, with a writer, a query
// before each of the writer's Scale.WriterInserts inserts. Every insert
// is traced; each query is traced or not by a seeded coin, so the two
// halves see the same mix of steps and measure the tracing overhead.
// The first answer of each distinct request is kept in ph for the
// checks.
func (r *tracedRun) replay(ctx context.Context, tf Traffic, ph *phase) ([]opRec, error) {
	env := r.env
	tracer := r.srv.Tracer()
	streams := make([]func() []Req, env.W.Readers)
	pending := make([][]Req, env.W.Readers)
	for i := range streams {
		streams[i] = tf.Reader(i)
	}
	batches := NewBatches(env.Seed, tf.Class, "w", env.Scale.WriterBatch)
	coin := rand.New(rand.NewSource(env.Seed))
	var ops []opRec
	deadline := time.Now().Add(env.Seconds)
	more := func(i int) bool {
		if env.W.Writer {
			return i < env.Scale.WriterInserts
		}
		return time.Now().Before(deadline)
	}
	for i := 0; more(i); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		reader := i % env.W.Readers
		if len(pending[reader]) == 0 {
			pending[reader] = streams[reader]()
		}
		q := pending[reader][0]
		pending[reader] = pending[reader][1:]
		traced := coin.Intn(2) == 0
		tracer.SetEnabled(traced)
		res := r.c.Query(ctx, q.Body)
		r.tally.Op(res.OK())
		if !res.OK() {
			r.note("query %s/%s: %s", q.Label, q.Step, res)
			continue
		}
		ops = append(ops, r.record(res, false, traced))
		ph.keep(q, res.Body)
		if env.W.Writer {
			tracer.SetEnabled(true)
			res := r.c.Insert(ctx, batches.Next())
			r.tally.Op(res.OK())
			if !res.OK() {
				r.note("insert: %s", res)
				continue
			}
			ops = append(ops, r.recordInsert(res, env.Scale.WriterBatch))
		}
	}
	tracer.SetEnabled(false)
	r.rep.Samples["replayed_ops"] = len(ops)
	return ops, nil
}

func (r *tracedRun) record(res Result, insert, traced bool) opRec {
	rec := opRec{insert: insert, traced: traced, elapsed: res.Elapsed, bytes: len(res.Body), cost: parseCost(res.Header.Get("X-RDFCube-Cost"))}
	if traced {
		want := "/query"
		if insert {
			want = "/insert"
		}
		if last := r.srv.Tracer().Last(1); len(last) == 1 && last[0].Root != nil && last[0].Root.Name == want {
			rec.root = last[0].Root
		}
	}
	return rec
}

// recordInsert records a traced insert of a batch of bloggers.
func (r *tracedRun) recordInsert(res Result, bloggers int) opRec {
	rec := r.record(res, true, true)
	rec.triples = bloggers * TriplesPerBlogger
	var ir server.InsertResponse
	if err := json.Unmarshal(res.Body, &ir); err == nil {
		rec.delta = ir.Delta
	}
	return rec
}

// parseCost parses the X-RDFCube-Cost header's k=v list.
func parseCost(h string) map[string]int64 {
	out := map[string]int64{}
	for _, f := range strings.Fields(h) {
		if k, v, ok := strings.Cut(f, "="); ok {
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				out[k] = n
			}
		}
	}
	return out
}

// spanSum sums the durations of every span named name in the tree
// (nested same-name spans are not double-counted: the walk stops at
// the first match on each path).
func spanSum(d *obs.SpanDump, name string) int64 {
	if d == nil {
		return 0
	}
	if d.Name == name {
		return d.DurNs
	}
	var n int64
	for _, c := range d.Children {
		n += spanSum(c, name)
	}
	return n
}

// selfNs is a span's duration minus its children's.
func selfNs(d *obs.SpanDump) int64 {
	n := d.DurNs
	for _, c := range d.Children {
		n -= c.DurNs
	}
	return max(n, 0)
}

// fromSpans derives the server, viewreg, bgp and persist timings, the
// dark time and the tracing overhead from the replayed requests.
func (r *tracedRun) fromSpans(ops []opRec) {
	rep := r.rep
	var (
		render, wire, answer, bgpEval, respBytes float64
		tracedQ, nQ, nIns                        int
		maintain, walAppend                      float64
		rootNs, darkNs                           int64
		tracedLat, untracedLat                   Latencies
		scanned, produced, seeks                 int64
	)
	for _, op := range ops {
		if op.insert {
			nIns++
		} else {
			nQ++
			respBytes += float64(op.bytes)
			scanned += op.cost["scanned"]
			produced += op.cost["produced"]
			seeks += op.cost["seeks"]
			if op.traced {
				tracedLat = append(tracedLat, op.elapsed)
			} else {
				untracedLat = append(untracedLat, op.elapsed)
			}
		}
		if op.root == nil {
			continue
		}
		rootNs += op.root.DurNs
		darkNs += selfNs(op.root)
		if op.insert {
			maintain += float64(spanSum(op.root, "viewreg.maintain"))
			walAppend += float64(spanSum(op.root, "wal.append"))
			continue
		}
		tracedQ++
		render += float64(spanSum(op.root, "render"))
		answer += float64(spanSum(op.root, "viewreg.answer"))
		bgpEval += float64(spanSum(op.root, "bgp.eval"))
		wire += float64(op.elapsed.Nanoseconds() - op.root.DurNs)
	}
	perQ := func(ns float64) float64 { return Ratio(ns, float64(tracedQ)) / 1e6 }
	perIns := func(ns float64) float64 { return Ratio(ns, float64(nIns)) / 1e6 }
	rep.Set("server.render_ms", "ms", perQ(render))
	rep.Set("server.wire_ms", "ms", perQ(wire))
	rep.Set("server.resp_kb", "KiB", Ratio(respBytes, float64(nQ))/1024)
	rep.Set("viewreg.answer_ms", "ms", perQ(answer))
	rep.Set("bgp.eval_ms", "ms", perQ(bgpEval))
	rep.Set("viewreg.maintain_ms", "ms", perIns(maintain))
	rep.Set("persist.wal_append_ms", "ms", perIns(walAppend))
	rep.Set("bgp.rows_scanned", "count", Ratio(float64(scanned), float64(nQ)))
	rep.Set("bgp.rows_produced", "count", Ratio(float64(produced), float64(nQ)))
	rep.Set("bgp.seeks", "count", Ratio(float64(seeks), float64(nQ)))
	rep.Set("bgp.produced_per_scanned", "ratio", Ratio(float64(produced), float64(scanned)))
	rep.Set("unattributed_frac", "ratio", Ratio(float64(darkNs), float64(rootNs)))
	rep.Set("trace_overhead_ms", "ms", Ms(tracedLat.Percentile(0.5))-Ms(untracedLat.Percentile(0.5)))
	rep.Samples["traced_queries"] = len(tracedLat)
	rep.Samples["untraced_queries"] = len(untracedLat)
	rep.Samples["traced_inserts"] = nIns
	rep.Extra["traced_query_p50_ms"] = Ms(tracedLat.Percentile(0.5))
	rep.Extra["untraced_query_p50_ms"] = Ms(untracedLat.Percentile(0.5))
	rep.Extra["spans"] = spanTable(ops)
}

// spanTable aggregates every span name of the replay: count, total and
// self milliseconds — the layer breakdown in one table.
func spanTable(ops []opRec) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	var walk func(d *obs.SpanDump)
	walk = func(d *obs.SpanDump) {
		row := out[d.Name]
		if row == nil {
			row = map[string]float64{}
			out[d.Name] = row
		}
		row["count"]++
		row["total_ms"] += float64(d.DurNs) / 1e6
		row["self_ms"] += float64(selfNs(d)) / 1e6
		for _, c := range d.Children {
			walk(c)
		}
	}
	for _, op := range ops {
		if op.root != nil {
			walk(op.root)
		}
	}
	return out
}

// fromMetrics derives the registry, store and persist counts from the
// /metrics deltas across the replay.
func (r *tracedRun) fromMetrics(before, after Prom, ops []opRec) {
	rep := r.rep
	d := func(series string) float64 { return Delta(before, after, series) }
	total := 0.0
	for _, s := range []string{"cached", "dice-rewrite", "drillout-rewrite", "drillin-rewrite", "direct"} {
		n := d(`rdfcube_viewreg_answers_total{strategy="` + s + `"}`)
		rep.Set("viewreg.strategy."+s, "count", n)
		total += n
	}
	rep.Set("viewreg.hit_frac", "ratio", Ratio(total-d(`rdfcube_viewreg_answers_total{strategy="direct"}`), total))
	rep.Set("viewreg.bytes_mb", "MiB", after["rdfcube_viewreg_bytes"]/mib)
	rep.Set("viewreg.evictions", "count", d("rdfcube_viewreg_evictions_total"))
	rep.Set("viewreg.invalidations", "count", d("rdfcube_viewreg_invalidations_total"))
	rep.Set("store.compactions", "count", d("rdfcube_bg_compactions_total"))
	bh, bm := d("rdfcube_mmap_block_cache_hits_total"), d("rdfcube_mmap_block_cache_misses_total")
	th, tm := d("rdfcube_mmap_term_cache_hits_total"), d("rdfcube_mmap_term_cache_misses_total")
	rep.Set("store.block_cache_hit_frac", "ratio", Ratio(bh, bh+bm))
	rep.Set("store.term_cache_hit_frac", "ratio", Ratio(th, th+tm))
	rep.Set("persist.fsyncs", "count", d("rdfcube_wal_sync_seconds_count"))
	rep.Set("persist.checkpoint_ms", "ms", checkpointMs(before, after))
	peak, triples := 0, 0
	for _, op := range ops {
		peak = max(peak, op.delta)
		if !op.probe {
			triples += op.triples // the probe ran before the first scrape
		}
	}
	rep.Set("store.delta_peak", "count", float64(peak))
	rep.Set("persist.wal_bytes_per_triple", "count", Ratio(d("rdfcube_wal_appended_bytes_total"), float64(triples)))
}

// checkpointMs is the mean checkpoint duration between two scrapes.
func checkpointMs(before, after Prom) float64 {
	return Ratio(Delta(before, after, "rdfcube_checkpoint_seconds_sum"), Delta(before, after, "rdfcube_checkpoint_seconds_count")) * 1e3
}

// coreQuery builds the core query a /query request describes (the
// server's own translation is internal to it).
func coreQuery(body []byte) (*core.Query, []server.OpSpec, sparql.Prefixes, error) {
	var qr server.QueryRequest
	if err := json.Unmarshal(body, &qr); err != nil {
		return nil, nil, nil, err
	}
	px := sparql.DefaultPrefixes()
	for k, v := range qr.Prefixes {
		px[k] = v
	}
	c, err := sparql.ParseDatalog(qr.Classifier, px)
	if err != nil {
		return nil, nil, nil, err
	}
	m, err := sparql.ParseDatalog(qr.Measure, px)
	if err != nil {
		return nil, nil, nil, err
	}
	f, err := agg.ByName(qr.Agg)
	if err != nil {
		return nil, nil, nil, err
	}
	q, err := core.New(c, m, f)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(qr.Sigma) > 0 {
		q.Sigma = core.Sigma{}
		for dim, vals := range qr.Sigma {
			for _, v := range vals {
				t, err := sparql.ParseTerm(v, px)
				if err != nil {
					return nil, nil, nil, err
				}
				q.Sigma[dim] = append(q.Sigma[dim], t)
			}
		}
		if err := q.Validate(); err != nil {
			return nil, nil, nil, err
		}
	}
	return q, qr.Ops, px, nil
}

// applyOp applies one OLAP operation to q.
func applyOp(q *core.Query, op server.OpSpec, px sparql.Prefixes) (*core.Query, error) {
	switch op.Op {
	case "slice":
		v, err := sparql.ParseTerm(op.Value, px)
		if err != nil {
			return nil, err
		}
		return core.Slice(q, op.Dim, v)
	case "dice":
		restr := map[string][]rdf.Term{}
		for dim, vals := range op.Restrictions {
			for _, v := range vals {
				t, err := sparql.ParseTerm(v, px)
				if err != nil {
					return nil, err
				}
				restr[dim] = append(restr[dim], t)
			}
		}
		return core.Dice(q, restr)
	case "drillout":
		return core.DrillOut(q, op.Dims...)
	case "drillin":
		return core.DrillIn(q, op.Dim)
	}
	return nil, fmt.Errorf("unknown op %q", op.Op)
}

// probeShapes groups a workload's distinct requests by base query: each
// group's first request has no ops, the rest are its OLAP steps.
func probeShapes(w Workload, seed int64) [][]Req {
	var groups [][]Req
	for _, q := range w.Shapes(seed) {
		if q.Step == "open" {
			groups = append(groups, []Req{q})
			continue
		}
		groups[len(groups)-1] = append(groups[len(groups)-1], q)
	}
	return groups
}

// probe accumulates the benchmark's own core/algebra/bgp spans.
type probe struct {
	selfNs map[string][]int64 // per call, by span name
	alloc  map[string]uint64  // bytes allocated, by span name
	rowsIn int                // rows fed into algebra operators
	shapes int
	dumps  []string
}

// call runs fn inside a span named name (a child of the trace root on
// ctx, so the program's own bgp.eval spans nest under it) and charges
// the allocation it caused.
func (p *probe) call(ctx context.Context, name string, fn func(context.Context) error) error {
	cctx, span := obs.StartSpan(ctx, name)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := fn(cctx)
	runtime.ReadMemStats(&m1)
	span.End()
	p.alloc[name] += m1.TotalAlloc - m0.TotalAlloc
	return err
}

// probeCore times core and algebra calls for each base shape of the
// workload and its OLAP steps, on the serving instance.
func (r *tracedRun) probeCore(ctx context.Context, tf Traffic) error {
	ev := r.srv.Registry().Evaluator()
	inst := ev.Instance()
	resolve := func(id dict.ID) (float64, bool) {
		t, ok := inst.Dict().Decode(id)
		if !ok {
			return 0, false
		}
		return t.AsFloat()
	}
	p := &probe{selfNs: map[string][]int64{}, alloc: map[string]uint64{}}
	tracer := &obs.Tracer{}
	for _, group := range probeShapes(r.env.W, r.env.Seed) {
		q, _, px, err := coreQuery(directBody(group[0].Body, false))
		if err != nil {
			return fmt.Errorf("probe query: %w", err)
		}
		tctx, tr := tracer.Start(ctx, "probe "+group[0].Label)
		e := func(c context.Context) *core.Evaluator { return ev.WithContext(c) }
		root := q.Root()
		var c, mk, joined, pres, ans, proj, cube *algebra.Relation
		steps := []struct {
			name string
			fn   func(context.Context) error
		}{
			{"bgp.classifier", func(c context.Context) error { _, err := bgp.EvalSetCtx(c, inst, q.Classifier); return err }},
			{"bgp.measure", func(c context.Context) error { _, err := bgp.EvalBagCtx(c, inst, q.Measure); return err }},
			{"core.classifier", func(cc context.Context) (err error) { c, err = e(cc).EvalClassifier(q); return }},
			{"core.measure", func(cc context.Context) (err error) { mk, err = e(cc).EvalMeasureKeyed(q); return }},
			{"algebra.join", func(context.Context) (err error) {
				p.rowsIn += c.Len() + mk.Len()
				joined, err = c.Join(mk, []string{root}, []string{root})
				return
			}},
			{"algebra.project", func(context.Context) error {
				p.rowsIn += joined.Len()
				cols := append(append([]string{root}, q.Dims()...), core.KeyCol, q.MeasureVar())
				joined.Project(cols...)
				return nil
			}},
			{"core.pres", func(cc context.Context) (err error) { pres, err = e(cc).Pres(q); return }},
			{"core.answer_from_pres", func(cc context.Context) (err error) { ans, err = e(cc).AnswerFromPres(q, pres); return }},
			{"algebra.project", func(context.Context) error {
				p.rowsIn += pres.Len()
				proj = pres.Project(append(append([]string{root}, q.Dims()...), q.MeasureVar())...)
				return nil
			}},
			{"algebra.group", func(context.Context) error {
				p.rowsIn += proj.Len()
				cube = proj.GroupAggregate(q.Dims(), q.MeasureVar(), q.MeasureVar(), q.Agg, resolve)
				return nil
			}},
		}
		for _, s := range steps {
			if err := p.call(tctx, s.name, s.fn); err != nil {
				return fmt.Errorf("probe %s %s: %w", group[0].Label, s.name, err)
			}
		}
		ok := algebra.Equal(cube, ans)
		r.tally.Check(ok)
		if !ok {
			r.note("MISMATCH probe %s: π+γ over pres differs from AnswerFromPres", group[0].Label)
		}
		for _, step := range group[1:] {
			_, ops, _, err := coreQuery(step.Body)
			if err != nil || len(ops) != 1 {
				return fmt.Errorf("probe step %s/%s: %v", step.Label, step.Step, err)
			}
			derived, err := applyOp(q, ops[0], px)
			if err != nil {
				return fmt.Errorf("probe step %s/%s: %w", step.Label, step.Step, err)
			}
			err = p.call(tctx, "core.rewrite", func(cc context.Context) error {
				var err error
				switch ops[0].Op {
				case "slice", "dice":
					_, err = e(cc).DiceRewrite(derived, ans)
				case "drillout":
					_, err = e(cc).DrillOutRewrite(q, pres, ops[0].Dims...)
				case "drillin":
					_, err = e(cc).DrillInRewrite(q, pres, ops[0].Dim)
				}
				return err
			})
			if err != nil {
				return fmt.Errorf("probe rewrite %s/%s: %w", step.Label, step.Step, err)
			}
		}
		tracer.Finish(tr)
		dump := tr.Dump()
		for _, sp := range dump.Root.Children {
			p.selfNs[sp.Name] = append(p.selfNs[sp.Name], selfNs(sp))
		}
		p.dumps = append(p.dumps, dump.Root.Render())
		p.shapes++
	}
	rep := r.rep
	meanMs := func(name string) float64 {
		var sum int64
		for _, n := range p.selfNs[name] {
			sum += n
		}
		return Ratio(float64(sum), float64(len(p.selfNs[name]))) / 1e6
	}
	perShapeMB := func(bytes float64) float64 { return Ratio(bytes, float64(p.shapes)) / mib }
	for _, m := range []string{"classifier", "measure", "pres", "answer_from_pres", "rewrite"} {
		rep.Set("core."+m+"_ms", "ms", meanMs("core."+m))
	}
	for _, m := range []string{"join", "project", "group"} {
		rep.Set("algebra."+m+"_ms", "ms", meanMs("algebra."+m))
	}
	bgpAlloc := float64(p.alloc["bgp.classifier"] + p.alloc["bgp.measure"])
	rep.Set("bgp.alloc_mb", "MiB", perShapeMB(bgpAlloc))
	rep.Set("core.alloc_mb", "MiB", perShapeMB(max(float64(p.alloc["core.classifier"]+p.alloc["core.measure"])-bgpAlloc, 0)))
	rep.Set("algebra.alloc_mb", "MiB", perShapeMB(float64(p.alloc["algebra.join"]+p.alloc["algebra.project"]+p.alloc["algebra.group"])))
	rep.Set("algebra.rows_in", "count", Ratio(float64(p.rowsIn), float64(p.shapes)))
	rep.Samples["probe_shapes"] = p.shapes
	rep.Extra["probe_traces"] = p.dumps
	return nil
}

// probeIncr times incremental maintenance directly: a maintained pres
// of the workload's first base cube absorbs writer-sized batches of new
// bloggers through incr.MaintainedPres.Insert (a store write plus delta
// maintenance). It runs last: the writes bypass the server and its WAL.
// The maintained answer must equal a fresh evaluation afterwards.
func (r *tracedRun) probeIncr(tf Traffic) error {
	ev := r.srv.Registry().Evaluator()
	q, _, _, err := coreQuery(directBody(probeShapes(r.env.W, r.env.Seed)[0][0].Body, false))
	if err != nil {
		return err
	}
	mp, err := incr.New(ev, q)
	if err != nil {
		return fmt.Errorf("incr probe: %w", err)
	}
	batches := NewBatches(r.env.Seed, tf.Class, "incr", r.env.Scale.WriterBatch)
	var ns, facts []float64
	for i := 0; i < incrBatches; i++ {
		triples, err := nt.ParseString(string(batches.Next()))
		if err != nil {
			return err
		}
		t0 := time.Now()
		newFacts, _, err := mp.Insert(triples)
		if err != nil {
			return fmt.Errorf("incr probe insert: %w", err)
		}
		ns = append(ns, float64(time.Since(t0).Nanoseconds()))
		facts = append(facts, float64(newFacts))
	}
	got, err := mp.Answer()
	if err != nil {
		return err
	}
	want, err := ev.Answer(q)
	if err != nil {
		return err
	}
	ok := algebra.Equal(got, want)
	r.tally.Check(ok)
	if !ok {
		r.note("MISMATCH incr probe: maintained answer differs from re-evaluation")
	}
	r.rep.Set("incr.insert_ms", "ms", mean(ns)/1e6)
	r.rep.Set("incr.new_facts", "count", mean(facts))
	r.rep.Samples["incr_batches"] = len(ns)
	return nil
}

// incrBatches is how many writer-sized batches the incremental probe
// inserts.
const incrBatches = 8

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return Ratio(s, float64(len(xs)))
}

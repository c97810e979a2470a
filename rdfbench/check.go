package main

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// checkWorkers bounds the concurrent comparisons (the host has 2 cores).
const checkWorkers = 2

// check compares answers after the timed phase, with the graph no
// longer changing:
//
//   - cube-explore: each distinct request's registry answer against its
//     "direct": true answer;
//   - cold-cubes: each (distinct) direct answer against the registry
//     answer of the same request;
//   - ingest-mix: each distinct reader request's maintained registry
//     answer against a fresh direct answer.
func (r *runner) check(ctx context.Context, ph *phase) error {
	type job struct {
		req  Req
		want []byte // nil: ask the registry and compare with direct
	}
	var jobs []job
	if r.env.W.Writer {
		// The answers seen during the run were of a moving graph.
		for _, q := range NewIngestReader(r.env.Seed).Distinct() {
			jobs = append(jobs, job{req: q})
		}
	} else {
		for _, q := range ph.order {
			jobs = append(jobs, job{q, ph.answers[string(q.Body)]})
		}
	}
	ch := make(chan job)
	var wg sync.WaitGroup
	for i := 0; i < checkWorkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				r.compare(ctx, j.req, j.want)
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
	r.rep.Samples["checked_requests"] = len(jobs)
	return ctx.Err()
}

// compare asks for req's counterpart answer (direct for a registry
// request and vice versa) and checks it against want; with want nil,
// it asks for both.
func (r *runner) compare(ctx context.Context, req Req, want []byte) {
	direct := string(directBody(req.Body, true)) == string(req.Body)
	if want == nil {
		res := r.c.Query(ctx, req.Body)
		r.tally.Op(res.OK())
		if !res.OK() {
			r.note("check %s/%s: %s", req.Label, req.Step, res)
			return
		}
		want = res.Body
	}
	res := r.c.Query(ctx, directBody(req.Body, !direct))
	r.tally.Op(res.OK())
	if !res.OK() {
		r.note("check %s/%s: %s", req.Label, req.Step, res)
		return
	}
	ok := SameAnswer(want, res.Body)
	r.tally.Check(ok)
	if !ok {
		r.note("MISMATCH %s/%s: registry and direct answers differ for %s", req.Label, req.Step, req.Body)
	}
}

// recoverMapped measures crash recovery of the durable daemon in the
// state the timed phase left it: three background compactions behind
// it, each raced by the writer, and the writes since the last one in
// the WAL. It records the direct answers of the registered cubes, then
// SIGKILLs the daemon and restarts it on the same data-dir `restarts`
// times. After every restart the direct answers must be unchanged,
// i.e. every acknowledged insert survived; a daemon that cannot
// restart fails that check, and the run stops measuring recovery.
func (r *e2eRun) recoverMapped(ctx context.Context) ([]float64, error) {
	bases := NewIngestReader(r.env.Seed).Bases()
	before := make([][]byte, len(bases))
	for i, q := range bases {
		res := r.c.Query(ctx, directBody(q.Body, true))
		r.tally.Op(res.OK())
		if !res.OK() {
			return nil, fmt.Errorf("pre-crash direct answer: %s", res)
		}
		before[i] = res.Body
	}
	flags := r.d.Flags
	var samples []float64
	for i := 0; i < restarts; i++ {
		r.kill()
		t0 := time.Now()
		d, err := StartDaemon(ctx, r.env.Daemon, r.env.Work+"/daemon.log", flags, 150*time.Second)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			r.tally.Check(false)
			r.note("RECOVERY FAILED after SIGKILL %d: %v", i+1, err)
			return samples, nil
		}
		samples = append(samples, time.Since(t0).Seconds())
		r.d, r.c = d, NewClient(d.Addr, 2)
		for j, q := range bases {
			res := r.c.Query(ctx, directBody(q.Body, true))
			r.tally.Op(res.OK())
			if !res.OK() {
				r.note("post-recovery direct answer: %s", res)
				continue
			}
			ok := SameAnswer(before[j], res.Body)
			r.tally.Check(ok)
			if !ok {
				r.note("MISMATCH after recovery %d: %s/%s changed", i+1, q.Label, q.Step)
			}
		}
	}
	return samples, nil
}

// restarts is how many crash recoveries a durable run measures;
// recover_s is their median.
const restarts = 5

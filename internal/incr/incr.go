// Package incr maintains the materialized partial result pres(Q) of an
// analytical query incrementally as triples are added to the AnS
// instance, so the rewriting algorithms keep paying view-maintenance
// cost instead of recomputation cost.
//
// The paper materializes pres(Q) once, as a by-product of answering Q;
// its companion line of work (reference [5], dynamic RDF databases)
// motivates keeping such materializations alive under updates. The delta
// rules follow from Definition 4:
//
//	pres(Q) = c(I) ⋈_x m_k(I)
//	Δpres   = Δc ⋈ m_k(I ∪ Δ)  ∪  c(I) ⋈ Δm_k
//
// where Δc (Δm̄) are the classifier (measure) embeddings that use at
// least one inserted triple. Definition 3's bijection between the bag
// result of m and the set result of m̄ (the measure with all body
// variables distinguished) is what makes exact maintenance possible:
// new measure *tuples* are identified by new m̄ *embeddings*, each of
// which receives a fresh key continuing the newk() sequence.
//
// A materialization can absorb insertions through two doors: Insert
// writes a triple batch to the instance itself and applies it, while
// Sync consumes the store's delta feed (store.DeltaSince) — the door the
// shared view registry uses when *someone else* already wrote to the
// instance. Both leave the store's representation alone: with the
// delta-layer store, writes land in the sorted overlay on top of the
// frozen base, so delta evaluations run on the merged fast path and no
// re-freeze heuristics are needed here.
//
// Deletions are out of scope (the paper's warehouse is append-oriented);
// Refresh recomputes from scratch when needed — Sync falls back to it
// when the store's base epoch moved (compaction folded the feed away, or
// an out-of-band structural change happened).
package incr

import (
	"context"
	"fmt"

	"rdfcube/internal/algebra"
	"rdfcube/internal/bgp"
	"rdfcube/internal/core"
	"rdfcube/internal/dict"
	"rdfcube/internal/obs"
	"rdfcube/internal/rdf"
	"rdfcube/internal/sparql"
	"rdfcube/internal/store"
)

// MaintainedPres is a pres(Q) materialization that absorbs instance
// insertions incrementally.
type MaintainedPres struct {
	q    *core.Query
	ev   *core.Evaluator
	inst *store.Store

	// c is the current classifier result (set semantics, Σ applied);
	// cKeys indexes its rows.
	c     *algebra.Relation
	cKeys map[string]struct{}
	// mbarKeys indexes the current m̄ embeddings (all measure body
	// variables); mk is the keyed measure m_k.
	mbarKeys map[string]struct{}
	mbarQ    *sparql.Query
	mk       *algebra.Relation
	nextKey  uint64

	// pres is the current materialization. Each maintenance application
	// swaps in a fresh *Relation header (rows appended copy-on-write), so
	// a caller that captured Pres() before the application can keep
	// reading its snapshot concurrently with the swap.
	pres *algebra.Relation

	// ver is the instance version the materialization reflects; Sync
	// applies store.DeltaSince(ver.Seq) to catch up. dirty marks a
	// partially-applied delta (apply failed midway): the keyed dedup
	// makes replay converge only for rows that never reached pres, so
	// the next Sync repairs via a full Refresh instead.
	ver   store.Version
	dirty bool
}

// New fully evaluates q over the evaluator's instance and returns a
// maintained materialization.
func New(ev *core.Evaluator, q *core.Query) (*MaintainedPres, error) {
	return NewCtx(context.Background(), ev, q)
}

// NewCtx is New with the *initial* evaluation bound to ctx, so a caller
// can abandon an expensive materialization build. The returned
// materialization stores ev itself — not a ctx-bound copy — so later
// Sync/Refresh calls are not poisoned by an expired request context.
func NewCtx(ctx context.Context, ev *core.Evaluator, q *core.Query) (*MaintainedPres, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	mp := &MaintainedPres{
		q:        q.Clone(),
		ev:       ev,
		inst:     ev.Instance(),
		cKeys:    map[string]struct{}{},
		mbarKeys: map[string]struct{}{},
		ver:      ev.Instance().Version(),
	}
	mp.mbarQ = mbarQuery(q)

	cCtx, cSpan := obs.StartSpan(ctx, "incr.classifier")
	c, err := ev.WithContext(cCtx).EvalClassifier(q)
	cSpan.End()
	if err != nil {
		return nil, err
	}
	mp.c = c
	indexRows(mp.cKeys, c)

	// Evaluate m̄ once; each embedding becomes one keyed measure tuple.
	mCtx, mSpan := obs.StartSpan(ctx, "incr.measure")
	res, err := bgp.EvalCtx(mCtx, mp.inst, mp.mbarQ, bgp.Options{Distinct: true, KeepAllVars: true})
	mSpan.End()
	if err != nil {
		return nil, err
	}
	root, v := q.Measure.Head[0], q.Measure.Head[1]
	rootCol, vCol := res.Column(root), res.Column(v)
	if rootCol < 0 || vCol < 0 {
		return nil, fmt.Errorf("incr: measure head variables missing from m̄ result")
	}
	mp.mk = mp.keyedMeasure(res.Rows, rootCol, vCol)
	return mp, mp.rebuildPres()
}

// keyedMeasure turns new m̄ embeddings into keyed measure tuples
// (KeyCol, root, v): each embedding not seen before is recorded and gets
// the next newk() key.
func (mp *MaintainedPres) keyedMeasure(rows [][]dict.ID, rootCol, vCol int) *algebra.Relation {
	var keys []uint64
	var roots, vals []dict.ID
	for _, row := range rows {
		k := idKey(row)
		if _, dup := mp.mbarKeys[k]; dup {
			continue
		}
		mp.mbarKeys[k] = struct{}{}
		mp.nextKey++
		keys = append(keys, mp.nextKey)
		roots = append(roots, row[rootCol])
		vals = append(vals, row[vCol])
	}
	root, v := mp.q.Measure.Head[0], mp.q.Measure.Head[1]
	return &algebra.Relation{
		Cols: []string{core.KeyCol, root, v},
		Data: []algebra.Column{
			{Kind: algebra.KeyValue, Keys: keys},
			{Kind: algebra.TermValue, IDs: roots},
			{Kind: algebra.TermValue, IDs: vals},
		},
	}
}

// indexRows records the key of every row of a term relation in keys.
func indexRows(keys map[string]struct{}, rel *algebra.Relation) {
	row := make([]dict.ID, len(rel.Cols))
	for i := 0; i < rel.Len(); i++ {
		for j := range row {
			row[j] = rel.Data[j].IDs[i]
		}
		keys[idKey(row)] = struct{}{}
	}
}

// mbarQuery returns m̄: the measure body with every body variable
// distinguished (Definition 3), root first.
func mbarQuery(q *core.Query) *sparql.Query {
	mbar := q.Measure.Clone()
	mbar.Head = mbar.Vars()
	root := q.Measure.Head[0]
	for i, v := range mbar.Head {
		if v == root && i != 0 {
			mbar.Head[0], mbar.Head[i] = mbar.Head[i], mbar.Head[0]
			break
		}
	}
	return mbar
}

// rebuildPres recomputes pres from the maintained c and mk.
func (mp *MaintainedPres) rebuildPres() error {
	root := mp.q.Root()
	joined, err := mp.c.Join(mp.mk, []string{root}, []string{root})
	if err != nil {
		return err
	}
	cols := append([]string{root}, mp.q.Dims()...)
	cols = append(cols, core.KeyCol, mp.q.MeasureVar())
	mp.pres = joined.Project(cols...)
	return nil
}

// Pres returns the current materialized pres(Q). The caller must not
// mutate it. The returned relation is a stable snapshot: later
// maintenance applications swap in a fresh header instead of growing
// this one.
func (mp *MaintainedPres) Pres() *algebra.Relation { return mp.pres }

// Version returns the instance version the materialization reflects.
func (mp *MaintainedPres) Version() store.Version { return mp.ver }

// Answer aggregates the maintained pres(Q) into ans(Q) (Equation 3).
func (mp *MaintainedPres) Answer() (*algebra.Relation, error) {
	return mp.ev.AnswerFromPres(mp.q, mp.pres)
}

// Query returns the maintained query.
func (mp *MaintainedPres) Query() *core.Query { return mp.q }

// Insert adds triples to the AnS instance and updates the
// materialization incrementally. It returns the number of new classifier
// rows and new measure tuples absorbed (its own batch only). On a frozen
// instance the writes land in the store's delta overlay, so the delta
// evaluations below run on the merged fast path without any re-freeze.
//
// Insert first Syncs: triples that reached the instance out of band
// since the last application are absorbed from the delta feed (or, if
// the base epoch moved, via Refresh) before the batch — otherwise the
// version fast-forward below would silently mask them from later Syncs.
func (mp *MaintainedPres) Insert(triples []rdf.Triple) (newFacts, newMeasures int, err error) {
	if _, _, _, err := mp.Sync(); err != nil {
		return 0, 0, err
	}
	var delta []store.IDTriple
	for _, tr := range triples {
		s, p, o := mp.inst.Dict().EncodeTriple(tr)
		t := store.IDTriple{S: s, P: p, O: o}
		if mp.inst.AddID(t) {
			delta = append(delta, t)
		}
	}
	if len(delta) == 0 {
		mp.ver = mp.inst.Version()
		return 0, 0, nil
	}
	newFacts, newMeasures, err = mp.apply(delta)
	if err != nil {
		// Do not fast-forward: the store has the triples but the
		// materialization does not. The dirty mark set by apply makes
		// the next Sync repair via Refresh.
		return newFacts, newMeasures, err
	}
	mp.ver = mp.inst.Version()
	return newFacts, newMeasures, nil
}

// Sync consumes the instance's delta feed: it applies every triple
// accepted since the materialization's version. When the base epoch
// moved (the feed was folded away by compaction, or the store was
// structurally changed), Sync falls back to a full Refresh and reports
// refreshed = true.
func (mp *MaintainedPres) Sync() (newFacts, newMeasures int, refreshed bool, err error) {
	ver := mp.inst.Version()
	if !mp.dirty && ver == mp.ver {
		return 0, 0, false, nil
	}
	if mp.dirty || ver.Base != mp.ver.Base {
		return 0, 0, true, mp.Refresh()
	}
	delta := mp.inst.DeltaSince(mp.ver.Seq)
	if len(delta) == 0 {
		mp.ver = ver
		return 0, 0, false, nil
	}
	newFacts, newMeasures, err = mp.apply(delta)
	if err != nil {
		return newFacts, newMeasures, false, err
	}
	mp.ver = ver
	return newFacts, newMeasures, false, nil
}

// apply absorbs delta — triples already present in the instance — into
// the maintained c, m_k and pres. It marks the materialization dirty for
// its duration: an error can leave c/m_k partially updated with pres
// behind, which keyed replay cannot repair, so Sync falls back to
// Refresh while the mark stands.
func (mp *MaintainedPres) apply(delta []store.IDTriple) (newFacts, newMeasures int, err error) {
	mp.dirty = true
	// Δc: classifier embeddings touching a delta triple, Σ-filtered,
	// projected to the head, minus rows already present.
	cRows, err := deltaHeadRows(mp.inst, mp.q.Classifier, delta)
	if err != nil {
		return 0, 0, err
	}
	sigma, err := core.CompileSigma(mp.inst.Dict(), mp.c.Cols, mp.q.Dims(), mp.q.Sigma)
	if err != nil {
		return 0, 0, err
	}
	var fresh [][]dict.ID
	for _, row := range cRows {
		k := idKey(row)
		if _, dup := mp.cKeys[k]; dup || !sigma.Row(row) {
			continue
		}
		mp.cKeys[k] = struct{}{}
		fresh = append(fresh, row)
	}
	freshC := algebra.FromIDRows(mp.c.Cols, fresh, nil)
	oldC := mp.c
	mp.c = mp.c.Concat(freshC)

	// Δm̄: new measure embeddings; each gets a fresh key.
	root, v := mp.q.Measure.Head[0], mp.q.Measure.Head[1]
	mRows, mVars, err := deltaFullRowsProjected(mp.inst, mp.mbarQ, delta, mp.mbarQ.Vars())
	if err != nil {
		return 0, 0, err
	}
	rootCol, vCol := -1, -1
	for i, name := range mVars {
		if name == root {
			rootCol = i
		}
		if name == v {
			vCol = i
		}
	}
	freshMk := mp.keyedMeasure(mRows, rootCol, vCol)
	mp.mk = mp.mk.Concat(freshMk)

	// Δpres = Δc ⋈ mk(all) ∪ c_old ⋈ Δmk. The first term uses the full
	// mk (which already includes Δmk); the second joins the classifier
	// as it stood before this batch, so no pair is counted twice.
	cols := append([]string{mp.q.Root()}, mp.q.Dims()...)
	cols = append(cols, core.KeyCol, mp.q.MeasureVar())

	part1, err := freshC.Join(mp.mk, []string{mp.q.Root()}, []string{mp.q.Root()})
	if err != nil {
		return 0, 0, err
	}
	part2, err := oldC.Join(freshMk, []string{mp.q.Root()}, []string{mp.q.Root()})
	if err != nil {
		return 0, 0, err
	}
	// Concat swaps in a fresh relation header (columns extended past the
	// old length): callers holding the previous Pres() snapshot keep a
	// consistent view while the materialization moves forward.
	next := mp.pres.Concat(part1.Project(cols...)).Concat(part2.Project(cols...))
	mp.pres = next
	mp.dirty = false
	return freshC.Len(), freshMk.Len(), nil
}

// Refresh recomputes the materialization from scratch; used after
// out-of-band instance mutations (e.g. deletions).
func (mp *MaintainedPres) Refresh() error {
	fresh, err := New(mp.ev, mp.q)
	if err != nil {
		return err
	}
	*mp = *fresh
	return nil
}

// deltaHeadRows returns the head projections of embeddings of q's body
// that use at least one delta triple. Rows may repeat across seeds; the
// caller deduplicates. Evaluation seeds each body pattern in turn with
// each matching delta triple and evaluates the remainder of the body.
func deltaHeadRows(st *store.Store, q *sparql.Query, delta []store.IDTriple) ([][]dict.ID, error) {
	rows, _, err := deltaFullRowsProjected(st, q, delta, q.Head)
	return rows, err
}

// deltaFullRowsProjected enumerates embeddings touching the delta,
// projected onto the given variables, deduplicated on the *full* body
// binding so one embedding is reported once even if several of its
// triples are new.
func deltaFullRowsProjected(st *store.Store, q *sparql.Query, delta []store.IDTriple, project []string) ([][]dict.ID, []string, error) {
	allVars := q.Vars()
	varPos := map[string]int{}
	for i, v := range allVars {
		varPos[v] = i
	}
	d := st.Dict()
	seen := map[string]struct{}{}
	var out [][]dict.ID

	for i, tp := range q.Patterns {
		for _, t := range delta {
			binding, ok := matchPattern(d, tp, t)
			if !ok {
				continue
			}
			// Substitute the seed bindings into a copy of the query.
			sub := q.Clone()
			for name, id := range binding {
				term, ok := d.Decode(id)
				if !ok {
					return nil, nil, fmt.Errorf("incr: unknown ID %d", id)
				}
				substituteBody(sub, name, term)
			}
			// Drop the seeded pattern (it is now fully constant and
			// known to hold); keep the rest.
			sub.Patterns = append(sub.Patterns[:i:i], sub.Patterns[i+1:]...)
			var res *bgp.Result
			switch {
			case len(sub.Patterns) == 0:
				res = &bgp.Result{}
			case len(sub.Vars()) == 0:
				// The seed bound every variable: the remaining patterns
				// are ground; verify they hold.
				holds := true
				for _, g := range sub.Patterns {
					if !groundHolds(st, g) {
						holds = false
						break
					}
				}
				if !holds {
					continue
				}
				res = &bgp.Result{}
				sub.Patterns = nil
			default:
				var err error
				res, err = bgp.Eval(st, sub, bgp.Options{Distinct: true, KeepAllVars: true})
				if err != nil {
					return nil, nil, err
				}
			}
			colOf := map[string]int{}
			for ci, name := range res.Vars {
				colOf[name] = ci
			}
			emit := func(row []dict.ID) {
				// Assemble the full binding: seed values + row values.
				fullRow := make([]dict.ID, len(allVars))
				complete := true
				for vi, name := range allVars {
					if id, ok := binding[name]; ok {
						fullRow[vi] = id
						continue
					}
					ci, ok := colOf[name]
					if !ok || row == nil {
						complete = false
						break
					}
					fullRow[vi] = row[ci]
				}
				if !complete {
					return
				}
				k := idKey(fullRow)
				if _, dup := seen[k]; dup {
					return
				}
				seen[k] = struct{}{}
				proj := make([]dict.ID, len(project))
				for pi, name := range project {
					proj[pi] = fullRow[varPos[name]]
				}
				out = append(out, proj)
			}
			if len(sub.Patterns) == 0 {
				// The whole body was the seeded pattern.
				emit(nil)
				continue
			}
			for _, row := range res.Rows {
				emit(row)
			}
		}
	}
	return out, project, nil
}

// groundHolds reports whether a fully-constant pattern is in the store.
func groundHolds(st *store.Store, tp sparql.TriplePattern) bool {
	return st.Contains(rdf.Triple{S: tp.S.Term, P: tp.P.Term, O: tp.O.Term})
}

// matchPattern unifies a triple pattern with a concrete triple,
// returning the variable binding, or ok=false on mismatch (including
// repeated variables that would bind inconsistently).
func matchPattern(d *dict.Dictionary, tp sparql.TriplePattern, t store.IDTriple) (map[string]dict.ID, bool) {
	binding := map[string]dict.ID{}
	bind := func(n sparql.Node, id dict.ID) bool {
		if n.IsVar() {
			if prev, ok := binding[n.Var]; ok {
				return prev == id
			}
			binding[n.Var] = id
			return true
		}
		want, ok := d.Lookup(n.Term)
		return ok && want == id
	}
	if !bind(tp.S, t.S) || !bind(tp.P, t.P) || !bind(tp.O, t.O) {
		return nil, false
	}
	return binding, true
}

// substituteBody replaces a variable with a constant in the body only
// (head membership is irrelevant here; results are reassembled from the
// seed bindings).
func substituteBody(q *sparql.Query, name string, t rdf.Term) {
	var head []string
	for _, v := range q.Head {
		if v != name {
			head = append(head, v)
		}
	}
	q.Head = head
	for i, tp := range q.Patterns {
		if tp.S.Var == name {
			q.Patterns[i].S = sparql.C(t)
		}
		if tp.P.Var == name {
			q.Patterns[i].P = sparql.C(t)
		}
		if tp.O.Var == name {
			q.Patterns[i].O = sparql.C(t)
		}
	}
	if len(q.Head) == 0 && len(q.Patterns) > 0 {
		// Keep the query valid: promote any remaining variable.
		if vs := q.Vars(); len(vs) > 0 {
			q.Head = []string{vs[0]}
		}
	}
}

// idKey encodes a row of term IDs as a dedup key.
func idKey(row []dict.ID) string {
	b := make([]byte, 0, len(row)*8)
	for _, id := range row {
		for s := 0; s < 64; s += 8 {
			b = append(b, byte(uint64(id)>>s))
		}
	}
	return string(b)
}

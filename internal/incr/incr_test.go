package incr

import (
	"fmt"
	"math/rand"
	"testing"

	"rdfcube/internal/agg"
	"rdfcube/internal/algebra"
	"rdfcube/internal/core"
	"rdfcube/internal/rdf"
	"rdfcube/internal/sparql"
	"rdfcube/internal/store"
)

const ns = "http://e.org/"

func iri(s string) rdf.Term { return rdf.NewIRI(ns + s) }

func px() sparql.Prefixes {
	p := sparql.DefaultPrefixes()
	p[""] = ns
	return p
}

func testQuery(t *testing.T, f agg.Func) *core.Query {
	t.Helper()
	c := sparql.MustParseDatalog(
		"c(x, d0, d1) :- x rdf:type :Fact, x :dim0 d0, x :dim1 d1", px())
	m := sparql.MustParseDatalog(
		"m(x, v) :- x rdf:type :Fact, x :did e, e :score v", px())
	q, err := core.New(c, m, f)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// factTriples builds the triples of one synthetic fact.
func factTriples(rng *rand.Rand, id int) []rdf.Triple {
	x := iri(fmt.Sprintf("fact%d", id))
	var out []rdf.Triple
	add := func(s, p, o rdf.Term) { out = append(out, rdf.Triple{S: s, P: p, O: o}) }
	add(x, rdf.Type, iri("Fact"))
	add(x, iri("dim0"), rdf.NewInt(int64(rng.Intn(3))))
	if rng.Float64() < 0.4 {
		add(x, iri("dim0"), rdf.NewInt(int64(3+rng.Intn(2)))) // multi-valued
	}
	add(x, iri("dim1"), rdf.NewInt(int64(rng.Intn(4))))
	for m := 0; m < rng.Intn(3); m++ {
		e := iri(fmt.Sprintf("ev%d_%d", id, m))
		add(x, iri("did"), e)
		add(e, iri("score"), rdf.NewInt(int64(1+rng.Intn(9))))
	}
	return out
}

// checkAgainstFresh compares the maintained pres/ans against a
// from-scratch evaluation (keys differ; compare the keyless projection
// as bags, and the cube exactly).
func checkAgainstFresh(t *testing.T, mp *MaintainedPres) {
	t.Helper()
	q := mp.Query()
	freshPres, err := mp.ev.Pres(q)
	if err != nil {
		t.Fatal(err)
	}
	cols := append([]string{q.Root()}, q.Dims()...)
	cols = append(cols, q.MeasureVar())
	a := mp.Pres().Project(cols...)
	b := freshPres.Project(cols...)
	if !algebra.Equal(a, b) {
		t.Fatalf("maintained pres diverged from fresh evaluation\n maintained: %d rows\n fresh: %d rows",
			a.Len(), b.Len())
	}
	// Keys must still deduplicate correctly: distinct (row, key) pairs
	// equal distinct pairs in the fresh pres.
	if mp.Pres().Dedup().Len() != freshPres.Dedup().Len() {
		t.Fatalf("key structure diverged: %d vs %d distinct pres rows",
			mp.Pres().Dedup().Len(), freshPres.Dedup().Len())
	}
	gotAns, err := mp.Answer()
	if err != nil {
		t.Fatal(err)
	}
	wantAns, err := mp.ev.AnswerFromPres(q, freshPres)
	if err != nil {
		t.Fatal(err)
	}
	if !algebra.Equal(gotAns, wantAns) {
		t.Fatalf("maintained answer diverged\n got: %v\n want: %v", gotAns.Rows(), wantAns.Rows())
	}
}

func TestIncrementalMatchesFreshRandom(t *testing.T) {
	for _, aggName := range []string{"sum", "count", "avg"} {
		t.Run(aggName, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			st := store.New()
			f, err := agg.ByName(aggName)
			if err != nil {
				t.Fatal(err)
			}
			// Initial population.
			id := 0
			for ; id < 20; id++ {
				for _, tr := range factTriples(rng, id) {
					st.Add(tr)
				}
			}
			ev := core.NewEvaluator(st)
			mp, err := New(ev, testQuery(t, f))
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstFresh(t, mp)
			// Ten incremental batches of new facts.
			for batch := 0; batch < 10; batch++ {
				var triples []rdf.Triple
				for n := 0; n < 1+rng.Intn(5); n++ {
					triples = append(triples, factTriples(rng, id)...)
					id++
				}
				if _, _, err := mp.Insert(triples); err != nil {
					t.Fatalf("batch %d: %v", batch, err)
				}
				checkAgainstFresh(t, mp)
			}
		})
	}
}

func TestInsertExtendsExistingFact(t *testing.T) {
	// New triples that extend an existing fact: an extra dimension value
	// (new classifier rows) and an extra measure (new keyed tuple).
	rng := rand.New(rand.NewSource(7))
	st := store.New()
	for idx := 0; idx < 10; idx++ {
		for _, tr := range factTriples(rng, idx) {
			st.Add(tr)
		}
	}
	// Ensure fact0 exists with at least one measure.
	x := iri("fact0")
	st.Add(rdf.Triple{S: x, P: rdf.Type, O: iri("Fact")})
	st.Add(rdf.Triple{S: x, P: iri("dim0"), O: rdf.NewInt(0)})
	st.Add(rdf.Triple{S: x, P: iri("dim1"), O: rdf.NewInt(0)})
	st.Add(rdf.Triple{S: x, P: iri("did"), O: iri("seed_e")})
	st.Add(rdf.Triple{S: iri("seed_e"), P: iri("score"), O: rdf.NewInt(5)})

	ev := core.NewEvaluator(st)
	mp, err := New(ev, testQuery(t, agg.Sum))
	if err != nil {
		t.Fatal(err)
	}
	before := mp.Pres().Len()

	// A second dim0 value multiplies fact0's classifier rows.
	if _, _, err := mp.Insert([]rdf.Triple{
		{S: x, P: iri("dim0"), O: rdf.NewInt(99)},
	}); err != nil {
		t.Fatal(err)
	}
	checkAgainstFresh(t, mp)
	if mp.Pres().Len() <= before {
		t.Fatal("multi-valued extension did not grow pres")
	}

	// A new measure for fact0 must join against ALL its classifier rows.
	if _, _, err := mp.Insert([]rdf.Triple{
		{S: x, P: iri("did"), O: iri("new_e")},
		{S: iri("new_e"), P: iri("score"), O: rdf.NewInt(8)},
	}); err != nil {
		t.Fatal(err)
	}
	checkAgainstFresh(t, mp)
}

func TestInsertDuplicateTriplesNoOp(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	st := store.New()
	var all []rdf.Triple
	for idx := 0; idx < 15; idx++ {
		trs := factTriples(rng, idx)
		all = append(all, trs...)
		for _, tr := range trs {
			st.Add(tr)
		}
	}
	ev := core.NewEvaluator(st)
	mp, err := New(ev, testQuery(t, agg.Sum))
	if err != nil {
		t.Fatal(err)
	}
	before := mp.Pres().Len()
	nf, nm, err := mp.Insert(all) // every triple already present
	if err != nil {
		t.Fatal(err)
	}
	if nf != 0 || nm != 0 || mp.Pres().Len() != before {
		t.Fatalf("duplicate insert changed state: facts=%d measures=%d", nf, nm)
	}
	checkAgainstFresh(t, mp)
}

func TestInsertWithSigma(t *testing.T) {
	// Σ-restricted maintained query: newly inserted facts outside the
	// restriction must not enter pres.
	rng := rand.New(rand.NewSource(11))
	st := store.New()
	for idx := 0; idx < 20; idx++ {
		for _, tr := range factTriples(rng, idx) {
			st.Add(tr)
		}
	}
	q := testQuery(t, agg.Sum)
	restricted, err := core.Dice(q, map[string][]rdf.Term{"d0": {rdf.NewInt(0), rdf.NewInt(1)}})
	if err != nil {
		t.Fatal(err)
	}
	ev := core.NewEvaluator(st)
	mp, err := New(ev, restricted)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstFresh(t, mp)
	id := 100
	for batch := 0; batch < 5; batch++ {
		var triples []rdf.Triple
		for n := 0; n < 3; n++ {
			triples = append(triples, factTriples(rng, id)...)
			id++
		}
		if _, _, err := mp.Insert(triples); err != nil {
			t.Fatal(err)
		}
		checkAgainstFresh(t, mp)
	}
}

// TestSyncConsumesDeltaFeed: writes that reach the instance out of band
// (not through Insert) are absorbed by Sync via the store's delta feed,
// on top of the frozen base; a compaction between writes and Sync forces
// the Refresh fallback, which must also converge.
func TestSyncConsumesDeltaFeed(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	st := store.New()
	for idx := 0; idx < 20; idx++ {
		for _, tr := range factTriples(rng, idx) {
			st.Add(tr)
		}
	}
	st.Freeze()
	ev := core.NewEvaluator(st)
	mp, err := New(ev, testQuery(t, agg.Sum))
	if err != nil {
		t.Fatal(err)
	}

	// Out-of-band writes into the frozen store land in the delta overlay.
	id := 500
	for batch := 0; batch < 4; batch++ {
		for n := 0; n < 3; n++ {
			for _, tr := range factTriples(rng, id) {
				st.Add(tr)
			}
			id++
		}
		if !st.IsFrozen() {
			t.Fatal("writes dropped the frozen base")
		}
		nf, nm, refreshed, err := mp.Sync()
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if refreshed {
			t.Fatalf("batch %d: Sync refreshed despite a live delta feed", batch)
		}
		if nf == 0 && nm == 0 && batch == 0 {
			t.Fatal("Sync absorbed nothing from a non-empty delta")
		}
		checkAgainstFresh(t, mp)
		if mp.Version() != st.Version() {
			t.Fatalf("batch %d: version %+v, store %+v", batch, mp.Version(), st.Version())
		}
	}
	// Idempotent when caught up.
	if nf, nm, refreshed, err := mp.Sync(); nf != 0 || nm != 0 || refreshed || err != nil {
		t.Fatalf("caught-up Sync: %d %d %v %v", nf, nm, refreshed, err)
	}

	// Compaction folds the feed away: the next Sync after further writes
	// must fall back to Refresh and still converge.
	for _, tr := range factTriples(rng, id) {
		st.Add(tr)
	}
	st.Freeze() // compacts: base epoch moves
	_, _, refreshed, err := mp.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if !refreshed {
		t.Fatal("Sync did not refresh after a base-epoch move")
	}
	checkAgainstFresh(t, mp)
}

// TestInsertAbsorbsPendingFeed: an out-of-band write followed by an
// Insert must not be masked — Insert's version fast-forward has to pull
// the pending feed triples in first, or a later Sync would never see
// them (regression: maintained pres permanently diverged).
func TestInsertAbsorbsPendingFeed(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	st := store.New()
	for idx := 0; idx < 15; idx++ {
		for _, tr := range factTriples(rng, idx) {
			st.Add(tr)
		}
	}
	st.Freeze()
	mp, err := New(core.NewEvaluator(st), testQuery(t, agg.Sum))
	if err != nil {
		t.Fatal(err)
	}
	// Out of band: straight into the store's delta overlay.
	for _, tr := range factTriples(rng, 600) {
		st.Add(tr)
	}
	// Through the materialization: must absorb both.
	if _, _, err := mp.Insert(factTriples(rng, 601)); err != nil {
		t.Fatal(err)
	}
	checkAgainstFresh(t, mp)
	if nf, nm, refreshed, err := mp.Sync(); nf != 0 || nm != 0 || refreshed || err != nil {
		t.Fatalf("post-Insert Sync found leftovers: %d %d %v %v", nf, nm, refreshed, err)
	}
}

func TestRefresh(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	st := store.New()
	for idx := 0; idx < 10; idx++ {
		for _, tr := range factTriples(rng, idx) {
			st.Add(tr)
		}
	}
	ev := core.NewEvaluator(st)
	mp, err := New(ev, testQuery(t, agg.Sum))
	if err != nil {
		t.Fatal(err)
	}
	// Out-of-band mutation, then Refresh.
	x := iri("oob")
	st.Add(rdf.Triple{S: x, P: rdf.Type, O: iri("Fact")})
	st.Add(rdf.Triple{S: x, P: iri("dim0"), O: rdf.NewInt(1)})
	st.Add(rdf.Triple{S: x, P: iri("dim1"), O: rdf.NewInt(1)})
	st.Add(rdf.Triple{S: x, P: iri("did"), O: iri("oob_e")})
	st.Add(rdf.Triple{S: iri("oob_e"), P: iri("score"), O: rdf.NewInt(3)})
	if err := mp.Refresh(); err != nil {
		t.Fatal(err)
	}
	checkAgainstFresh(t, mp)
}

func TestMaintainedDrillOutStaysCorrect(t *testing.T) {
	// The point of maintenance: after inserts, Algorithm 1 over the
	// maintained pres still answers the drilled-out query correctly.
	rng := rand.New(rand.NewSource(17))
	st := store.New()
	for idx := 0; idx < 30; idx++ {
		for _, tr := range factTriples(rng, idx) {
			st.Add(tr)
		}
	}
	ev := core.NewEvaluator(st)
	q := testQuery(t, agg.Sum)
	mp, err := New(ev, q)
	if err != nil {
		t.Fatal(err)
	}
	id := 200
	for batch := 0; batch < 5; batch++ {
		var triples []rdf.Triple
		for n := 0; n < 4; n++ {
			triples = append(triples, factTriples(rng, id)...)
			id++
		}
		if _, _, err := mp.Insert(triples); err != nil {
			t.Fatal(err)
		}
		rewritten, err := ev.DrillOutRewrite(q, mp.Pres(), "d1")
		if err != nil {
			t.Fatal(err)
		}
		qOut, err := core.DrillOut(q, "d1")
		if err != nil {
			t.Fatal(err)
		}
		direct, err := ev.Answer(qOut)
		if err != nil {
			t.Fatal(err)
		}
		if !algebra.Equal(direct, rewritten) {
			t.Fatalf("batch %d: drill-out over maintained pres diverged", batch)
		}
	}
}

func BenchmarkInsertVsRecompute(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	st := store.New()
	for idx := 0; idx < 2000; idx++ {
		for _, tr := range factTriples(rng, idx) {
			st.Add(tr)
		}
	}
	ev := core.NewEvaluator(st)
	c := sparql.MustParseDatalog(
		"c(x, d0, d1) :- x rdf:type :Fact, x :dim0 d0, x :dim1 d1", px())
	m := sparql.MustParseDatalog(
		"m(x, v) :- x rdf:type :Fact, x :did e, e :score v", px())
	q, err := core.New(c, m, agg.Sum)
	if err != nil {
		b.Fatal(err)
	}
	mp, err := New(ev, q)
	if err != nil {
		b.Fatal(err)
	}
	id := 10000
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := mp.Insert(factTriples(rng, id)); err != nil {
				b.Fatal(err)
			}
			id++
		}
	})
	b.Run("recompute", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, tr := range factTriples(rng, id) {
				st.Add(tr)
			}
			id++
			if _, err := ev.Pres(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

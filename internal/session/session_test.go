package session

import (
	"fmt"
	"math/rand"
	"strings"
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

// instance builds a small multi-valued instance: facts with two
// dimensions (dim0, dim1), a drill-in-able hub attribute, and scores.
func instance(seed int64, facts int) *store.Store {
	rng := rand.New(rand.NewSource(seed))
	st := store.New()
	add := func(s, p, o rdf.Term) { st.Add(rdf.NewTriple(s, p, o)) }
	for h := 0; h < 5; h++ {
		hub := iri(fmt.Sprintf("hub%d", h))
		add(hub, iri("label"), rdf.NewInt(int64(h)))
		add(hub, iri("tag"), iri(fmt.Sprintf("tag%d", h%3)))
	}
	for f := 0; f < facts; f++ {
		x := iri(fmt.Sprintf("fact%d", f))
		add(x, rdf.Type, iri("Fact"))
		add(x, iri("dim0"), rdf.NewInt(int64(rng.Intn(4))))
		if rng.Float64() < 0.3 {
			add(x, iri("dim0"), rdf.NewInt(int64(4+rng.Intn(2))))
		}
		add(x, iri("at"), iri(fmt.Sprintf("hub%d", rng.Intn(5))))
		add(x, iri("score"), rdf.NewInt(int64(1+rng.Intn(9))))
	}
	return st
}

// query builds the session's base AnQ: classify facts by dim0 and hub
// label; the hub tag stays existential (drill-in target).
func query(t *testing.T, f agg.Func) *core.Query {
	t.Helper()
	c := sparql.MustParseDatalog(
		"c(x, d0, d1) :- x rdf:type :Fact, x :dim0 d0, x :at h, h :label d1, h :tag d2", px())
	m := sparql.MustParseDatalog("m(x, v) :- x rdf:type :Fact, x :score v", px())
	q, err := core.New(c, m, f)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func answerBoth(t *testing.T, m *Manager, q *core.Query, wantStrategy Strategy) *algebra.Relation {
	t.Helper()
	cube, strategy, err := m.Answer(q)
	if err != nil {
		t.Fatalf("Answer: %v", err)
	}
	if strategy != wantStrategy {
		t.Fatalf("strategy = %s, want %s", strategy, wantStrategy)
	}
	// Cross-check against a plain evaluator.
	direct, err := m.Evaluator().Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	reordered := cube.Project(direct.Cols...)
	if !algebra.Equal(direct, reordered) {
		t.Fatalf("strategy %s returned a wrong cube\n got: %v\n want: %v",
			strategy, reordered.Rows(), direct.Rows())
	}
	return cube
}

func TestFirstAnswerIsDirect(t *testing.T) {
	m := NewManager(instance(1, 50))
	q := query(t, agg.Sum)
	answerBoth(t, m, q, StrategyDirect)
	if m.Entries() != 1 {
		t.Errorf("Entries = %d, want 1", m.Entries())
	}
}

func TestIdenticalQueryCached(t *testing.T) {
	m := NewManager(instance(2, 50))
	q := query(t, agg.Sum)
	answerBoth(t, m, q, StrategyDirect)
	answerBoth(t, m, q.Clone(), StrategyCached)
	if m.Entries() != 1 {
		t.Errorf("cached hit must not add an entry, Entries = %d", m.Entries())
	}
}

func TestSliceDetected(t *testing.T) {
	m := NewManager(instance(3, 60))
	q := query(t, agg.Sum)
	answerBoth(t, m, q, StrategyDirect)
	sliced, err := core.Slice(q, "d0", rdf.NewInt(2))
	if err != nil {
		t.Fatal(err)
	}
	answerBoth(t, m, sliced, StrategyDice)
}

func TestDiceDetected(t *testing.T) {
	m := NewManager(instance(4, 60))
	q := query(t, agg.Count)
	answerBoth(t, m, q, StrategyDirect)
	diced, err := core.Dice(q, map[string][]rdf.Term{
		"d0": {rdf.NewInt(1), rdf.NewInt(2)},
		"d1": {rdf.NewInt(0), rdf.NewInt(3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	answerBoth(t, m, diced, StrategyDice)
}

func TestDiceOfDiceDetected(t *testing.T) {
	// A second dice refining the first must rewrite against the *diced*
	// materialization (or the base; both are correct — strategy must be
	// a rewrite, not direct).
	m := NewManager(instance(5, 60))
	q := query(t, agg.Sum)
	answerBoth(t, m, q, StrategyDirect)
	d1, err := core.Dice(q, map[string][]rdf.Term{"d0": {rdf.NewInt(1), rdf.NewInt(2)}})
	if err != nil {
		t.Fatal(err)
	}
	answerBoth(t, m, d1, StrategyDice)
	d2, err := core.Dice(d1, map[string][]rdf.Term{"d0": {rdf.NewInt(1)}})
	if err != nil {
		t.Fatal(err)
	}
	answerBoth(t, m, d2, StrategyDice)
}

func TestRelaxedDiceNotRefinement(t *testing.T) {
	// Materialize a restricted cube, then ask the unrestricted one: the
	// restricted ans(Q) cannot answer it; direct evaluation required.
	m := NewManager(instance(6, 60))
	q := query(t, agg.Sum)
	sliced, err := core.Slice(q, "d0", rdf.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	answerBoth(t, m, sliced, StrategyDirect)
	answerBoth(t, m, q, StrategyDirect)
}

func TestDrillOutDetected(t *testing.T) {
	m := NewManager(instance(7, 80))
	q := query(t, agg.Sum)
	answerBoth(t, m, q, StrategyDirect)
	qOut, err := core.DrillOut(q, "d1")
	if err != nil {
		t.Fatal(err)
	}
	answerBoth(t, m, qOut, StrategyDrillOut)
}

func TestDrillOutBlockedByRestrictedDroppedDim(t *testing.T) {
	// e materialized with Σ(d1) restricted: dropping d1 cannot reuse
	// e.Pres (it was filtered); must go direct.
	m := NewManager(instance(8, 80))
	q := query(t, agg.Sum)
	sliced, err := core.Slice(q, "d1", rdf.NewInt(2))
	if err != nil {
		t.Fatal(err)
	}
	answerBoth(t, m, sliced, StrategyDirect)
	qOut, err := core.DrillOut(sliced, "d1")
	if err != nil {
		t.Fatal(err)
	}
	answerBoth(t, m, qOut, StrategyDirect)
}

func TestDrillInDetected(t *testing.T) {
	m := NewManager(instance(9, 80))
	q := query(t, agg.Sum)
	answerBoth(t, m, q, StrategyDirect)
	qIn, err := core.DrillIn(q, "d2")
	if err != nil {
		t.Fatal(err)
	}
	answerBoth(t, m, qIn, StrategyDrillIn)
}

func TestDifferentMeasureNoReuse(t *testing.T) {
	m := NewManager(instance(10, 50))
	q := query(t, agg.Sum)
	answerBoth(t, m, q, StrategyDirect)
	// Same classifier, different aggregation: no reuse.
	q2 := query(t, agg.Avg)
	answerBoth(t, m, q2, StrategyDirect)
	// Different measure body: no reuse.
	c := q.Classifier.Clone()
	m2 := sparql.MustParseDatalog("m(x, v) :- x rdf:type :Fact, x :dim0 v", px())
	q3, err := core.New(c, m2, agg.Sum)
	if err != nil {
		t.Fatal(err)
	}
	answerBoth(t, m, q3, StrategyDirect)
}

func TestSessionWorkflow(t *testing.T) {
	// A realistic OLAP session: base cube, slice, drill-out, drill-in,
	// re-ask the base. Only the first answer touches the instance.
	m := NewManager(instance(11, 100))
	q := query(t, agg.Sum)
	answerBoth(t, m, q, StrategyDirect)

	sliced, _ := core.Slice(q, "d0", rdf.NewInt(3))
	answerBoth(t, m, sliced, StrategyDice)

	qOut, _ := core.DrillOut(q, "d0")
	answerBoth(t, m, qOut, StrategyDrillOut)

	qIn, _ := core.DrillIn(q, "d2")
	answerBoth(t, m, qIn, StrategyDrillIn)

	answerBoth(t, m, q, StrategyCached)

	stats := m.Stats()
	if stats[StrategyDirect] != 1 {
		t.Errorf("direct evaluations = %d, want 1: %v", stats[StrategyDirect], stats)
	}
	if m.Entries() != 1 {
		t.Errorf("Entries = %d, want 1 (rewrites are not re-materialized)", m.Entries())
	}
}

func TestEviction(t *testing.T) {
	m := NewManager(instance(12, 40))
	m.MaxEntries = 2
	base := query(t, agg.Sum)
	for i := 0; i < 4; i++ {
		sliced, err := core.Slice(base, "d1", rdf.NewInt(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		// Each differently-sliced query... sliced queries are dice
		// refinements of each other only when subsets; distinct
		// singletons force direct evaluation and materialization.
		if _, _, err := m.Answer(sliced); err != nil {
			t.Fatal(err)
		}
	}
	if m.Entries() != 2 {
		t.Errorf("Entries = %d, want 2 after eviction", m.Entries())
	}
}

// TestInsertMaintainsSessionViews: an analyst's writes through the
// manager keep the materialized cube alive — the next identical query is
// still answered from the (maintained) view and reflects the new facts.
func TestInsertMaintainsSessionViews(t *testing.T) {
	st := instance(21, 40)
	st.Freeze()
	m := NewManager(st)
	q := query(t, agg.Sum)
	answerBoth(t, m, q, StrategyDirect)

	x := iri("sessfact")
	added := m.Insert([]rdf.Triple{
		{S: x, P: rdf.Type, O: iri("Fact")},
		{S: x, P: iri("dim0"), O: rdf.NewInt(1)},
		{S: x, P: iri("at"), O: iri("hub2")},
		{S: x, P: iri("score"), O: rdf.NewInt(700)},
	})
	if added != 4 {
		t.Fatalf("Insert added %d, want 4", added)
	}
	if m.Insert(nil) != 0 {
		t.Fatal("empty Insert reported additions")
	}
	// Served from the maintained view — not re-evaluated — and correct.
	answerBoth(t, m, q, StrategyCached)
	if got := m.Registry().Stats().Maintained; got == 0 {
		t.Error("Insert did not maintain the registered view")
	}
	if got := m.Stats()[StrategyDirect]; got != 1 {
		t.Errorf("direct evaluations = %d, want 1", got)
	}
}

func TestDescribe(t *testing.T) {
	m := NewManager(instance(13, 30))
	q := query(t, agg.Sum)
	if _, _, err := m.Answer(q); err != nil {
		t.Fatal(err)
	}
	d := m.Describe()
	if !strings.Contains(d, "1 materialized") || !strings.Contains(d, "agg=sum") {
		t.Errorf("Describe = %q", d)
	}
}

func TestInvalidQueryRejected(t *testing.T) {
	m := NewManager(instance(14, 10))
	bad := &core.Query{}
	if _, _, err := m.Answer(bad); err == nil {
		t.Error("invalid query accepted")
	}
}

// The matching-predicate unit tests (head relations, Σ refinement) live
// with the detection logic in internal/viewreg; this file keeps the
// end-to-end session behavior tests.

func TestManagerPreservesRegistryByteBudget(t *testing.T) {
	// A byte budget configured directly on the exposed registry must
	// survive Answer's forwarding of the legacy MaxEntries bound.
	m := NewManager(instance(15, 30))
	m.Registry().SetLimits(0, 123456)
	m.MaxEntries = 7
	if _, _, err := m.Answer(query(t, agg.Sum)); err != nil {
		t.Fatal(err)
	}
	// Shrink the budget below the entry's size: the eviction must kick
	// in, proving the byte bound stayed live after Answer.
	m.Registry().SetLimits(0, 1)
	if got := m.Entries(); got != 0 {
		t.Fatalf("Entries = %d, want 0 after byte-budget eviction", got)
	}
}

package core

import (
	"fmt"
	"math/rand"
	"testing"

	"rdfcube/internal/agg"
	"rdfcube/internal/algebra"
	"rdfcube/internal/rdf"
	"rdfcube/internal/sparql"
)

// TestUnionEqualsFilterRandom: Definition 2's union construction and the
// production Σ-filter evaluation agree on random instances and random
// restrictions.
func TestUnionEqualsFilterRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	for trial := 0; trial < 20; trial++ {
		nDims := 1 + rng.Intn(3)
		st := randomInstance(rng, 20+rng.Intn(40), nDims)
		q := randomQuery(t, nDims, agg.Count)
		restr := map[string][]rdf.Term{}
		for dIdx := 0; dIdx < nDims; dIdx++ {
			if rng.Intn(2) == 0 {
				continue
			}
			var vals []rdf.Term
			for v := 0; v < 7; v++ {
				if rng.Intn(3) == 0 {
					vals = append(vals, rdf.NewInt(int64(v)))
				}
			}
			if len(vals) == 0 {
				vals = []rdf.Term{rdf.NewInt(int64(rng.Intn(7)))}
			}
			restr[fmt.Sprintf("d%d", dIdx)] = vals
		}
		var diced *Query
		var err error
		if len(restr) == 0 {
			diced = q
		} else {
			diced, err = Dice(q, restr)
			if err != nil {
				t.Fatal(err)
			}
		}
		ev := NewEvaluator(st)
		filter, err := ev.EvalClassifier(diced)
		if err != nil {
			t.Fatal(err)
		}
		union, err := ev.EvalClassifierUnion(diced)
		if err != nil {
			t.Fatal(err)
		}
		filter.Sort()
		union.Sort()
		if !algebra.Equal(filter, union) {
			t.Fatalf("trial %d: union vs filter classifier mismatch\n filter: %v\n union: %v",
				trial, filter.Rows(), union.Rows())
		}

		// End-to-end answers agree too.
		a1, err := ev.Answer(diced)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := ev.AnswerUnion(diced)
		if err != nil {
			t.Fatal(err)
		}
		if !algebra.Equal(a1, a2) {
			t.Fatalf("trial %d: AnswerUnion mismatch", trial)
		}
	}
}

// TestUnionUnknownValue: Σ values absent from the instance contribute
// no rows on either path.
func TestUnionUnknownValue(t *testing.T) {
	rng := rand.New(rand.NewSource(809))
	st := randomInstance(rng, 30, 2)
	q := randomQuery(t, 2, agg.Count)
	diced, err := Dice(q, map[string][]rdf.Term{
		"d0": {rdf.NewInt(999)}, // never generated
	})
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(st)
	union, err := ev.EvalClassifierUnion(diced)
	if err != nil {
		t.Fatal(err)
	}
	filter, err := ev.EvalClassifier(diced)
	if err != nil {
		t.Fatal(err)
	}
	if union.Len() != 0 || filter.Len() != 0 {
		t.Fatalf("unknown Σ value matched rows: union=%d filter=%d", union.Len(), filter.Len())
	}
}

// TestUnionOverlapDedup: overlapping combinations must not duplicate
// classifier rows (set semantics across the union).
func TestUnionOverlapDedup(t *testing.T) {
	st := bloggerInstance()
	q := bloggerQuery(t)
	// Dice with duplicated value in the set.
	diced, err := Dice(q, map[string][]rdf.Term{
		"dage": {rdf.NewInt(35), rdf.NewInt(35)},
	})
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(st)
	union, err := ev.EvalClassifierUnion(diced)
	if err != nil {
		t.Fatal(err)
	}
	// user3 and user4: exactly two rows despite the duplicate value.
	if union.Len() != 2 {
		t.Fatalf("union rows = %d, want 2", union.Len())
	}
}

// BenchmarkSigmaFilterVsUnion is the ablation: the filter evaluation is
// one BGP pass; the union path pays one BGP per value combination.
func BenchmarkSigmaFilterVsUnion(b *testing.B) {
	rng := rand.New(rand.NewSource(810))
	st := randomInstance(rng, 2000, 2)
	c := MustNew(
		sparql.MustParseDatalog("c(x, d0, d1) :- x rdf:type :Fact, x :dim0 d0, x :dim1 d1", exPrefixes()),
		sparql.MustParseDatalog("m(x, v) :- x rdf:type :Fact, x :did e, e :score v", exPrefixes()),
		agg.Count)
	var vals0, vals1 []rdf.Term
	for v := 0; v < 4; v++ {
		vals0 = append(vals0, rdf.NewInt(int64(v)))
		vals1 = append(vals1, rdf.NewInt(int64(v)))
	}
	diced, err := Dice(c, map[string][]rdf.Term{"d0": vals0, "d1": vals1})
	if err != nil {
		b.Fatal(err)
	}
	ev := NewEvaluator(st)
	b.Run("filter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ev.EvalClassifier(diced); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("union", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ev.EvalClassifierUnion(diced); err != nil {
				b.Fatal(err)
			}
		}
	})
}

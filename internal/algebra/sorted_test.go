package algebra

// Ordering-aware fast paths (δ and γ over relations carrying a sort
// property): every path must be byte-identical — rows AND order — to
// the hash reference.

import (
	"math/rand"
	"testing"

	"rdfcube/internal/agg"
	"rdfcube/internal/dict"
)

// sortedDupRelation builds a relation whose rows ascend on every column
// with duplicates adjacent — the shape a sorted pipeline produces.
func sortedDupRelation(rng *rand.Rand, groups, maxRun int) *Relation {
	r := NewRelation("a", "b")
	va, vb := 1, 1
	for g := 0; g < groups; g++ {
		vb += 1 + rng.Intn(3)
		if vb > 40 {
			va, vb = va+1, 1+rng.Intn(3)
		}
		run := 1 + rng.Intn(maxRun)
		for i := 0; i < run; i++ {
			r.Append(Row{TermV(dict.ID(va)), TermV(dict.ID(vb))})
		}
	}
	return r
}

// relIdentical compares schema, then every cell's kind and bits, in
// row order.
func relIdentical(a, b *Relation) bool {
	if len(a.Cols) != len(b.Cols) || a.Len() != b.Len() {
		return false
	}
	for j := range a.Cols {
		if a.Cols[j] != b.Cols[j] || a.Data[j].Kind != b.Data[j].Kind {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if a.Data[j].bits(i) != b.Data[j].bits(i) {
				return false
			}
		}
	}
	return true
}

// hashReference re-runs the operation with the sort property stripped,
// forcing the hash path on the same rows.
func stripSorted(r *Relation) *Relation {
	c := r.Clone()
	c.Sorted, c.Strict = nil, false
	return c
}

func TestDedupSortedRunMatchesHash(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		r := sortedDupRelation(rng, 5+rng.Intn(200), 4)
		r.Sorted = []string{"a", "b"}
		run := r.Dedup()
		if !run.Strict {
			t.Fatal("full-column run dedup must yield a strict relation")
		}
		want := stripSorted(r).Dedup()
		if !relIdentical(run, want) {
			t.Fatalf("trial %d: run dedup diverged from hash dedup (%d vs %d rows)", trial, run.Len(), want.Len())
		}
	}
}

func TestDedupStrictFastPath(t *testing.T) {
	r := NewRelation("a", "b")
	for i := 1; i <= 50; i++ {
		r.Append(Row{TermV(dict.ID(i)), TermV(dict.ID(i % 7))})
	}
	r.Sorted, r.Strict = []string{"a"}, true
	got := r.Dedup()
	if got.Len() != r.Len() {
		t.Fatalf("strict relation lost rows in Dedup: %d vs %d", got.Len(), r.Len())
	}
	want := stripSorted(r).Dedup()
	if !relIdentical(got, want) {
		t.Fatal("strict fast path diverged from hash dedup")
	}
}

func TestGroupAggregateStreamMatchesHash(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, name := range []string{"count", "sum", "avg", "min", "max"} {
		f, err := agg.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		// Sorted (d0, d1) input with random measures appended per group.
		r := NewRelation("d0", "d1", "m")
		for a := 1; a <= 12; a++ {
			for b := 1; b <= 9; b++ {
				if rng.Intn(4) == 0 {
					continue
				}
				for i := 0; i < 1+rng.Intn(5); i++ {
					r.Append(Row{TermV(dict.ID(a)), TermV(dict.ID(b)), NumV(rng.Float64() * 100)})
				}
			}
		}
		r.Sorted, r.Strict = []string{"d0", "d1"}, false
		stream := r.GroupAggregate([]string{"d0", "d1"}, "m", "v", f, nil)
		if len(stream.Sorted) != 2 || !stream.Strict {
			t.Fatalf("agg=%s: streamed γ must declare a strict (d0, d1) sort, got %v strict=%v",
				name, stream.Sorted, stream.Strict)
		}
		want := stripSorted(r).GroupAggregate([]string{"d0", "d1"}, "m", "v", f, nil)
		if !relIdentical(stream, want) {
			t.Fatalf("agg=%s: streamed γ diverged from hash γ (%d vs %d groups)", name, stream.Len(), want.Len())
		}
		// Group columns in permuted order still qualify (set equality).
		perm := r.GroupAggregate([]string{"d1", "d0"}, "m", "v", f, nil)
		wantPerm := stripSorted(r).GroupAggregate([]string{"d1", "d0"}, "m", "v", f, nil)
		if !relIdentical(perm, wantPerm) {
			t.Fatalf("agg=%s: permuted streamed γ diverged", name)
		}
	}
}

package algebra_test

// Differential tests: every operator against a naive reference — nested
// loops over plain row slices, sharing no code with the algebra package
// — on seeded random relations with duplicate keys, empty sides,
// multi-column keys, and both sorted and unsorted inputs. Every physical
// path (merge, run-hash and hash ⋈; stream and hash γ; run, strict and
// hash δ) must produce the reference's rows in the
// reference's order, and every sort property an output declares must
// hold.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rdfcube/internal/agg"
	"rdfcube/internal/algebra"
	"rdfcube/internal/dict"
)

type value = algebra.Value

// table is the reference representation: named columns, rows of cells.
type table struct {
	cols []string
	rows [][]value
}

func same(a, b value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case algebra.NumValue:
		return math.Float64bits(a.Num) == math.Float64bits(b.Num)
	case algebra.KeyValue:
		return a.Key == b.Key
	}
	return a.ID == b.ID
}

func sameRow(a, b []value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !same(a[i], b[i]) {
			return false
		}
	}
	return true
}

// less orders two cells of one column: term IDs, numbers and keys by
// value.
func less(a, b value) bool {
	switch a.Kind {
	case algebra.NumValue:
		return a.Num < b.Num
	case algebra.KeyValue:
		return a.Key < b.Key
	}
	return a.ID < b.ID
}

func colIndex(cols []string, c string) int {
	for i, x := range cols {
		if x == c {
			return i
		}
	}
	panic("no column " + c)
}

// toTable reads a relation through its exported columns.
func toTable(r *algebra.Relation) table {
	t := table{cols: r.Cols}
	for i := 0; i < r.Len(); i++ {
		row := make([]value, len(r.Data))
		for j, c := range r.Data {
			switch c.Kind {
			case algebra.NumValue:
				row[j] = algebra.NumV(c.Nums[i])
			case algebra.KeyValue:
				row[j] = algebra.KeyV(c.Keys[i])
			default:
				row[j] = algebra.TermV(c.IDs[i])
			}
		}
		t.rows = append(t.rows, row)
	}
	return t
}

func toRelation(t table, sorted []string, strict bool) *algebra.Relation {
	r := algebra.NewRelation(t.cols...)
	for _, row := range t.rows {
		r.Append(row)
	}
	r.Sorted, r.Strict = sorted, strict
	return r
}

// randTable draws n rows; cells come from a domain of dom values so
// keys repeat.
func randTable(rng *rand.Rand, cols []string, kinds []algebra.ValueKind, n, dom int) table {
	t := table{cols: cols}
	for i := 0; i < n; i++ {
		row := make([]value, len(cols))
		for j, k := range kinds {
			x := rng.Intn(dom)
			switch k {
			case algebra.NumValue:
				row[j] = algebra.NumV(float64(x)*0.75 - 2)
			case algebra.KeyValue:
				row[j] = algebra.KeyV(uint64(x + 1))
			default:
				row[j] = algebra.TermV(dict.ID(x + 1))
			}
		}
		t.rows = append(t.rows, row)
	}
	return t
}

// cmpRows orders rows lexicographically on the column indexes idx.
func cmpRows(a, b []value, idx []int) int {
	for _, j := range idx {
		if less(a[j], b[j]) {
			return -1
		}
		if less(b[j], a[j]) {
			return 1
		}
	}
	return 0
}

// sortOn sorts t's rows (insertion sort) lexicographically on cols.
func sortOn(t table, cols []string) table {
	idx := make([]int, len(cols))
	for i, c := range cols {
		idx[i] = colIndex(t.cols, c)
	}
	rows := append([][]value(nil), t.rows...)
	for i := 1; i < len(rows); i++ {
		for k := i; k > 0 && cmpRows(rows[k], rows[k-1], idx) < 0; k-- {
			rows[k], rows[k-1] = rows[k-1], rows[k]
		}
	}
	return table{cols: t.cols, rows: rows}
}

func project(t table, cols []string) table {
	out := table{cols: cols}
	for _, row := range t.rows {
		nr := make([]value, len(cols))
		for i, c := range cols {
			nr[i] = row[colIndex(t.cols, c)]
		}
		out.rows = append(out.rows, nr)
	}
	return out
}

func dedup(t table) table {
	out := table{cols: t.cols}
	for _, row := range t.rows {
		dup := false
		for _, kept := range out.rows {
			if sameRow(row, kept) {
				dup = true
				break
			}
		}
		if !dup {
			out.rows = append(out.rows, row)
		}
	}
	return out
}

func join(l, r table, lc, rc []string) table {
	out := table{cols: append([]string(nil), l.cols...)}
	var keep []int
	for j, c := range r.cols {
		isKey := false
		for _, k := range rc {
			isKey = isKey || k == c
		}
		if !isKey {
			out.cols = append(out.cols, c)
			keep = append(keep, j)
		}
	}
	for _, lrow := range l.rows {
		for _, rrow := range r.rows {
			match := true
			for k := range lc {
				match = match && same(lrow[colIndex(l.cols, lc[k])], rrow[colIndex(r.cols, rc[k])])
			}
			if !match {
				continue
			}
			nr := append([]value(nil), lrow...)
			for _, j := range keep {
				nr = append(nr, rrow[j])
			}
			out.rows = append(out.rows, nr)
		}
	}
	return out
}

func group(t table, gcols []string, vcol, aggCol string, f agg.Func, resolve func(dict.ID) (float64, bool)) table {
	type grp struct {
		key []value
		acc agg.Accumulator
	}
	var groups []*grp
	v := colIndex(t.cols, vcol)
	for _, row := range t.rows {
		key := project(table{cols: t.cols, rows: [][]value{row}}, gcols).rows[0]
		var g *grp
		for _, cand := range groups {
			if sameRow(cand.key, key) {
				g = cand
				break
			}
		}
		if g == nil {
			g = &grp{key: key, acc: f.New()}
			groups = append(groups, g)
		}
		switch c := row[v]; c.Kind {
		case algebra.NumValue:
			g.acc.Add(dict.NoID, c.Num, true)
		case algebra.KeyValue:
			g.acc.Add(dict.ID(c.Key), float64(c.Key), true)
		default:
			num, ok := 0.0, false
			if resolve != nil {
				num, ok = resolve(c.ID)
			}
			g.acc.Add(c.ID, num, ok)
		}
	}
	out := table{cols: append(append([]string(nil), gcols...), aggCol)}
	for _, g := range groups {
		if x, ok := g.acc.Result(); ok {
			out.rows = append(out.rows, append(append([]value(nil), g.key...), algebra.NumV(x)))
		}
	}
	return out
}

func bagEqual(a, b table) bool {
	if fmt.Sprint(a.cols) != fmt.Sprint(b.cols) || len(a.rows) != len(b.rows) {
		return false
	}
	used := make([]bool, len(b.rows))
	for _, ra := range a.rows {
		found := false
		for j, rb := range b.rows {
			if !used[j] && sameRow(ra, rb) {
				used[j], found = true, true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// mustMatch requires got to hold want's rows in want's order and any
// sort property got declares to hold.
func mustMatch(t *testing.T, label string, got *algebra.Relation, want table) {
	t.Helper()
	gt := toTable(got)
	if fmt.Sprint(gt.cols) != fmt.Sprint(want.cols) || len(gt.rows) != len(want.rows) {
		t.Fatalf("%s: got %v × %d rows, want %v × %d", label, gt.cols, len(gt.rows), want.cols, len(want.rows))
	}
	for i := range want.rows {
		if !sameRow(gt.rows[i], want.rows[i]) {
			t.Fatalf("%s: row %d = %v, want %v", label, i, gt.rows[i], want.rows[i])
		}
	}
	if len(got.Sorted) == 0 {
		return
	}
	idx := make([]int, len(got.Sorted))
	for i, c := range got.Sorted {
		idx[i] = colIndex(gt.cols, c)
	}
	for i := 1; i < len(gt.rows); i++ {
		c := cmpRows(gt.rows[i-1], gt.rows[i], idx)
		if c > 0 || (got.Strict && c == 0) {
			t.Fatalf("%s: declared sort %v (strict=%v) violated at row %d", label, got.Sorted, got.Strict, i)
		}
	}
}

var sizes = []int{0, 1, 7, 120, 1500}

func TestDifferentialSelectProject(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	kinds := []algebra.ValueKind{algebra.TermValue, algebra.NumValue, algebra.KeyValue}
	for _, n := range sizes {
		tb := randTable(rng, []string{"a", "b", "c"}, kinds, n, 6)
		for _, sorted := range []bool{false, true} {
			var decl []string
			if sorted {
				tb, decl = sortOn(tb, []string{"a", "b"}), []string{"a", "b"}
			}
			r := toRelation(tb, decl, false)
			want := table{cols: tb.cols}
			for _, row := range tb.rows {
				if row[0].ID%2 == 1 {
					want.rows = append(want.rows, row)
				}
			}
			mustMatch(t, fmt.Sprintf("σ n=%d", n), r.Select(func(i int) bool { return r.Data[0].IDs[i]%2 == 1 }), want)
			mustMatch(t, fmt.Sprintf("σ-all n=%d", n), r.Select(func(int) bool { return true }), tb)
			for _, cols := range [][]string{{"c", "a"}, {"b"}, {"a", "b", "c"}, {"b", "c"}} {
				mustMatch(t, fmt.Sprintf("π%v n=%d", cols, n), r.Project(cols...), project(tb, cols))
			}
		}
	}
}

func TestDifferentialDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	kinds := []algebra.ValueKind{algebra.TermValue, algebra.KeyValue, algebra.NumValue}
	cols := []string{"a", "b", "c"}
	for _, n := range sizes {
		tb := randTable(rng, cols, kinds, n, 3)
		mustMatch(t, "δ hash", toRelation(tb, nil, false).Dedup(), dedup(tb))
		st := sortOn(tb, cols)
		mustMatch(t, "δ run", toRelation(st, cols, false).Dedup(), dedup(st))
		strict := dedup(st)
		mustMatch(t, "δ strict", toRelation(strict, []string{"a", "b", "c"}, true).Dedup(), strict)
	}
}

func TestDifferentialJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	term, num := algebra.TermValue, algebra.NumValue
	type side struct {
		cols  []string
		kinds []algebra.ValueKind
		key   []string
	}
	shapes := []struct {
		name string
		l, r side
	}{
		{"single", side{[]string{"x", "a"}, []algebra.ValueKind{term, term}, []string{"x"}},
			side{[]string{"x", "v"}, []algebra.ValueKind{term, num}, []string{"x"}}},
		{"renamed", side{[]string{"a", "x"}, []algebra.ValueKind{term, term}, []string{"x"}},
			side{[]string{"k", "b", "v"}, []algebra.ValueKind{term, term, num}, []string{"k"}}},
		{"multi", side{[]string{"x", "y", "a"}, []algebra.ValueKind{term, term, term}, []string{"x", "y"}},
			side{[]string{"y", "x", "v"}, []algebra.ValueKind{term, term, num}, []string{"y", "x"}}},
	}
	for _, sh := range shapes {
		for _, nl := range sizes {
			for _, nr := range []int{0, 3, 90, 700} {
				l := randTable(rng, sh.l.cols, sh.l.kinds, nl, 9)
				r := randTable(rng, sh.r.cols, sh.r.kinds, nr, 9)
				ls, rs := sortOn(l, sh.l.key), sortOn(r, sh.r.key)
				for _, c := range []struct {
					path string
					l, r *algebra.Relation
					want table
				}{
					{"merge", toRelation(ls, sh.l.key, false), toRelation(rs, sh.r.key, false), join(ls, rs, sh.l.key, sh.r.key)},
					{"run-hash", toRelation(l, nil, false), toRelation(rs, sh.r.key, false), join(l, rs, sh.l.key, sh.r.key)},
					{"hash", toRelation(l, nil, false), toRelation(r, nil, false), join(l, r, sh.l.key, sh.r.key)},
				} {
					got, err := c.l.Join(c.r, sh.l.key, sh.r.key)
					if err != nil {
						t.Fatal(err)
					}
					mustMatch(t, fmt.Sprintf("⋈ %s %s %d×%d", c.path, sh.name, nl, nr), got, c.want)
				}
			}
		}
	}
}

func TestDifferentialGroupAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	resolve := func(id dict.ID) (float64, bool) { return float64(id) * 1.5, id%5 != 0 }
	term := algebra.TermValue
	for _, name := range []string{"count", "sum", "avg", "min", "max", "countdistinct"} {
		f, err := agg.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, vk := range []algebra.ValueKind{algebra.TermValue, algebra.NumValue, algebra.KeyValue} {
			for _, res := range []func(dict.ID) (float64, bool){resolve, nil} {
				for _, n := range sizes {
					tb := randTable(rng, []string{"g", "h", "v"}, []algebra.ValueKind{term, term, vk}, n, 7)
					for _, gcols := range [][]string{{"g"}, {"h", "g"}, {}} {
						label := fmt.Sprintf("γ %s v=%d resolve=%v n=%d groups=%v", name, vk, res != nil, n, gcols)
						mustMatch(t, label+" hash", toRelation(tb, nil, false).GroupAggregate(gcols, "v", "agg", f, res),
							group(tb, gcols, "v", "agg", f, res))
						if len(gcols) == 0 {
							continue
						}
						st := sortOn(tb, []string{"g", "h"})
						decl := []string{"g", "h"}[:len(gcols)]
						mustMatch(t, label+" stream", toRelation(st, decl, false).GroupAggregate(gcols, "v", "agg", f, res),
							group(st, gcols, "v", "agg", f, res))
					}
				}
			}
		}
	}
}

func TestDifferentialSortEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	kinds := []algebra.ValueKind{algebra.NumValue, algebra.TermValue, algebra.KeyValue}
	cols := []string{"n", "t", "k"}
	for _, n := range sizes {
		tb := randTable(rng, cols, kinds, n, 4)
		r := toRelation(tb, nil, false)
		s := r.Clone()
		s.Sort()
		mustMatch(t, fmt.Sprintf("sort n=%d", n), s, sortOn(tb, cols))
		mustMatch(t, fmt.Sprintf("sort leaves input n=%d", n), r, tb)

		shuffled := table{cols: cols, rows: append([][]value(nil), tb.rows...)}
		rng.Shuffle(len(shuffled.rows), func(i, j int) {
			shuffled.rows[i], shuffled.rows[j] = shuffled.rows[j], shuffled.rows[i]
		})
		others := []table{shuffled, randTable(rng, cols, kinds, n, 4), {cols: []string{"n", "t", "x"}, rows: tb.rows}}
		if n > 0 {
			changed := table{cols: cols, rows: append([][]value(nil), shuffled.rows...)}
			changed.rows[0] = append([]value(nil), changed.rows[0]...)
			changed.rows[0][1] = algebra.TermV(changed.rows[0][1].ID + 1)
			dupd := table{cols: cols, rows: append([][]value(nil), shuffled.rows...)}
			dupd.rows[0] = dupd.rows[len(dupd.rows)-1]
			others = append(others, changed, dupd)
		}
		for i, o := range others {
			if got, want := algebra.Equal(r, toRelation(o, nil, false)), bagEqual(tb, o); got != want {
				t.Fatalf("Equal n=%d case %d = %v, want %v", n, i, got, want)
			}
		}
	}
}

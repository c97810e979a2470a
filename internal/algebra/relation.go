// Package algebra implements a small bag-semantics relational algebra —
// selection σ, projection π, duplicate elimination δ, grouping with
// aggregation γ, and joins ⋈ — over columnar relations.
//
// Section 3 of the paper expresses its rewriting algorithms in exactly
// these operators ("all relational algebra operators are assumed to have
// bag semantics"); the core package executes Algorithms 1 and 2 as plain
// algebra programs on pres(Q).
//
// A Relation stores one typed, pointer-free column per attribute: RDF
// term IDs ([]dict.ID), the measure keys newk() produces ([]uint64), or
// numbers ([]float64, the aggregates γ outputs). The kind belongs to the
// column, not to the cell. Operators work a column at a time: σ and δ
// find the surviving row indexes and gather each column once; π picks
// columns without copying them; ⋈ merges inputs sorted on a term key and
// otherwise probes a hash table over the right side's key runs, then
// gathers the output columns from the matched index pairs; γ numbers
// the groups (by run detection on group-sorted input, by hashing
// otherwise) and folds the measure column into one accumulator per
// group, resolving each distinct term to a number once.
//
// Operators never write into an input's columns; their outputs may share
// column arrays with their inputs (π always does). Append, Concat and
// Sort change only the header they are called on.
package algebra

import (
	"fmt"
	"math"
	"sort"

	"rdfcube/internal/agg"
	"rdfcube/internal/dict"
	"rdfcube/internal/hash64"
)

// ValueKind discriminates column (and cell) types.
type ValueKind uint8

// Cell kinds: an RDF term ID, a numeric aggregate, or a measure key
// produced by newk() (Section 3, extended measure result).
const (
	TermValue ValueKind = iota + 1
	NumValue
	KeyValue
)

// Value is one cell as read out of (Cell) or appended to (Append) a
// relation. Values are comparable; equality is structural.
type Value struct {
	Kind ValueKind
	ID   dict.ID // TermValue
	Num  float64 // NumValue
	Key  uint64  // KeyValue
}

// TermV wraps a dictionary ID as a cell.
func TermV(id dict.ID) Value { return Value{Kind: TermValue, ID: id} }

// NumV wraps a number as a cell.
func NumV(f float64) Value { return Value{Kind: NumValue, Num: f} }

// KeyV wraps a measure key as a cell.
func KeyV(k uint64) Value { return Value{Kind: KeyValue, Key: k} }

// String renders the cell for debugging and table output.
func (v Value) String() string {
	switch v.Kind {
	case TermValue:
		return fmt.Sprintf("t%d", v.ID)
	case NumValue:
		if v.Num == math.Trunc(v.Num) && math.Abs(v.Num) < 1e15 {
			return fmt.Sprintf("%d", int64(v.Num))
		}
		return fmt.Sprintf("%g", v.Num)
	case KeyValue:
		return fmt.Sprintf("k%d", v.Key)
	default:
		return "?"
	}
}

// Row is a tuple of cells, the unit Append takes.
type Row []Value

// Column holds one attribute's cells in the slice its Kind selects.
type Column struct {
	Kind ValueKind
	IDs  []dict.ID // TermValue
	Nums []float64 // NumValue
	Keys []uint64  // KeyValue
}

// Len reports the number of cells.
func (c *Column) Len() int {
	switch c.Kind {
	case NumValue:
		return len(c.Nums)
	case KeyValue:
		return len(c.Keys)
	}
	return len(c.IDs)
}

// At returns cell i.
func (c *Column) At(i int) Value {
	switch c.Kind {
	case NumValue:
		return NumV(c.Nums[i])
	case KeyValue:
		return KeyV(c.Keys[i])
	}
	return TermV(c.IDs[i])
}

// bits returns cell i's payload as one word. Hashing and equality use
// it, so numbers compare by bit pattern (NaN equals NaN, -0 differs
// from +0).
func (c *Column) bits(i int) uint64 {
	switch c.Kind {
	case NumValue:
		return math.Float64bits(c.Nums[i])
	case KeyValue:
		return c.Keys[i]
	}
	return uint64(c.IDs[i])
}

// compare orders cells i and j of c.
func (c *Column) compare(i, j int) int {
	var less, greater bool
	switch c.Kind {
	case NumValue:
		less, greater = c.Nums[i] < c.Nums[j], c.Nums[i] > c.Nums[j]
	case KeyValue:
		less, greater = c.Keys[i] < c.Keys[j], c.Keys[i] > c.Keys[j]
	default:
		less, greater = c.IDs[i] < c.IDs[j], c.IDs[i] > c.IDs[j]
	}
	switch {
	case less:
		return -1
	case greater:
		return 1
	}
	return 0
}

func gatherSlice[T any](s []T, idx []int32) []T {
	out := make([]T, len(idx))
	for k, i := range idx {
		out[k] = s[i]
	}
	return out
}

// gather returns the cells at idx, in idx order, as a new column.
func (c *Column) gather(idx []int32) Column {
	out := Column{Kind: c.Kind}
	switch c.Kind {
	case NumValue:
		out.Nums = gatherSlice(c.Nums, idx)
	case KeyValue:
		out.Keys = gatherSlice(c.Keys, idx)
	default:
		out.IDs = gatherSlice(c.IDs, idx)
	}
	return out
}

// capped returns c with every slice's capacity clipped to its length, so
// an append to a shared column reallocates instead of writing into an
// array another relation reads.
func (c Column) capped() Column {
	c.IDs, c.Nums, c.Keys = c.IDs[:len(c.IDs):len(c.IDs)], c.Nums[:len(c.Nums):len(c.Nums)], c.Keys[:len(c.Keys):len(c.Keys)]
	return c
}

// appendColumn appends src's cells to c. An empty c takes src's kind;
// otherwise the kinds must agree.
func (c Column) appendColumn(src *Column) Column {
	if src.Len() == 0 {
		return c
	}
	if c.Len() == 0 {
		c.Kind = src.Kind
	}
	if c.Kind != src.Kind {
		panic(fmt.Sprintf("algebra: appending kind-%d cells to a kind-%d column", src.Kind, c.Kind))
	}
	c.IDs, c.Nums, c.Keys = append(c.IDs, src.IDs...), append(c.Nums, src.Nums...), append(c.Keys, src.Keys...)
	return c
}

// Relation is a named-column table with bag semantics: duplicate rows are
// meaningful until an explicit δ. Data holds one column per name in
// Cols, all of equal length.
//
// Sorted and Strict carry the physical sort property of the rows, when
// one is known — typically inherited from the batch BGP engine through
// core. Sorted names the columns the rows are lexicographically ordered
// by (significance order); Strict additionally promises no two rows
// agree on all Sorted columns. Operators that preserve row order
// propagate the property; δ, γ and ⋈ exploit it to replace hash tables
// with run detection and merging. Both are advisory: a nil Sorted is
// always safe.
type Relation struct {
	Cols   []string
	Data   []Column
	Sorted []string
	Strict bool
}

// NewRelation returns an empty relation with the given columns, typed
// as term columns until something else is appended.
func NewRelation(cols ...string) *Relation {
	r := &Relation{Cols: append([]string(nil), cols...), Data: make([]Column, len(cols))}
	for i := range r.Data {
		r.Data[i].Kind = TermValue
	}
	return r
}

// FromIDRows transposes rows of term IDs (one per column of cols) into
// a relation, keeping only the rows keep accepts (all when keep is nil).
// It is the one bridge from the row-shaped BGP results.
func FromIDRows(cols []string, rows [][]dict.ID, keep func(row []dict.ID) bool) *Relation {
	sel := make([]int32, 0, len(rows))
	for i, row := range rows {
		if keep == nil || keep(row) {
			sel = append(sel, int32(i))
		}
	}
	r := &Relation{Cols: append([]string(nil), cols...), Data: make([]Column, len(cols))}
	for j := range r.Data {
		ids := make([]dict.ID, len(sel))
		for k, i := range sel {
			ids[k] = rows[i][j]
		}
		r.Data[j] = Column{Kind: TermValue, IDs: ids}
	}
	return r
}

// Len reports the number of rows (with duplicates).
func (r *Relation) Len() int {
	if len(r.Data) == 0 {
		return 0
	}
	return r.Data[0].Len()
}

// Bytes reports the size of the relation's cells: every column holds
// one 8-byte word per row. The view registry's byte budget and the
// per-query cost accounting both charge it. Nil-safe.
func (r *Relation) Bytes() int64 {
	if r == nil {
		return 0
	}
	return 8 * int64(r.Len()) * int64(len(r.Data))
}

// Column returns the index of col, or -1.
func (r *Relation) Column(col string) int {
	for i, c := range r.Cols {
		if c == col {
			return i
		}
	}
	return -1
}

// MustColumn returns the index of col, panicking if absent; for internal
// invariants.
func (r *Relation) MustColumn(col string) int {
	i := r.Column(col)
	if i < 0 {
		panic(fmt.Sprintf("algebra: no column %q in %v", col, r.Cols))
	}
	return i
}

// Cell returns the cell at row i, column j.
func (r *Relation) Cell(i, j int) Value { return r.Data[j].At(i) }

// Rows materializes the rows as cells, for tests and debug output.
func (r *Relation) Rows() []Row {
	rows := make([]Row, r.Len())
	for i := range rows {
		rows[i] = make(Row, len(r.Data))
		for j := range r.Data {
			rows[i][j] = r.Data[j].At(i)
		}
	}
	return rows
}

// Append adds a row; the row length must match the column count, and
// each cell's kind its column's (an empty column takes the cell's).
func (r *Relation) Append(row Row) {
	if len(row) != len(r.Cols) {
		panic(fmt.Sprintf("algebra: row width %d != %d columns", len(row), len(r.Cols)))
	}
	for j, v := range row {
		c := &r.Data[j]
		if c.Len() == 0 {
			c.Kind = v.Kind
		}
		switch {
		case c.Kind != v.Kind:
			panic(fmt.Sprintf("algebra: kind-%d cell in kind-%d column %q", v.Kind, c.Kind, r.Cols[j]))
		case v.Kind == NumValue:
			c.Nums = append(c.Nums, v.Num)
		case v.Kind == KeyValue:
			c.Keys = append(c.Keys, v.Key)
		default:
			c.IDs = append(c.IDs, v.ID)
		}
	}
	r.Sorted, r.Strict = nil, false
}

// Concat returns a new header holding r's rows followed by o's, which
// must have r's columns. The result may extend r's arrays in place past
// r's length — r's own cells stay untouched, so readers of r are safe,
// but r must not be concatenated onto a second time.
func (r *Relation) Concat(o *Relation) *Relation {
	if len(o.Cols) != len(r.Cols) {
		panic(fmt.Sprintf("algebra: concat of %v onto %v", o.Cols, r.Cols))
	}
	out := &Relation{Cols: r.Cols, Data: make([]Column, len(r.Data))}
	for j := range r.Data {
		out.Data[j] = r.Data[j].appendColumn(&o.Data[j])
	}
	return out
}

// Clone returns a deep copy.
func (r *Relation) Clone() *Relation {
	out := &Relation{Cols: append([]string(nil), r.Cols...), Data: make([]Column, len(r.Data))}
	for j := range r.Data {
		out.Data[j] = Column{Kind: r.Data[j].Kind}.appendColumn(&r.Data[j])
	}
	out.Sorted, out.Strict = append([]string(nil), r.Sorted...), r.Strict
	return out
}

// gather returns the rows at idx, in idx order, with r's columns and no
// sort property.
func (r *Relation) gather(idx []int32) *Relation {
	out := &Relation{Cols: append([]string(nil), r.Cols...), Data: make([]Column, len(r.Data))}
	for j := range r.Data {
		out.Data[j] = r.Data[j].gather(idx)
	}
	return out
}

// shared returns a new header over r's columns and sort property.
func (r *Relation) shared() *Relation {
	return r.Project(r.Cols...)
}

// Select returns σ_keep(r): the rows whose index keep accepts, bag
// semantics. Selection keeps row order, so the sort property survives;
// when every row survives the columns are shared, not copied.
func (r *Relation) Select(keep func(i int) bool) *Relation {
	n := r.Len()
	idx := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if keep(i) {
			idx = append(idx, int32(i))
		}
	}
	if len(idx) == n {
		return r.shared()
	}
	out := r.gather(idx)
	out.Sorted, out.Strict = append([]string(nil), r.Sorted...), r.Strict
	return out
}

// Project returns π_cols(r) with bag semantics (duplicates retained).
// The output shares r's column arrays. The longest sorted prefix whose
// columns all survive still orders the output; strictness survives
// only when the whole prefix does.
func (r *Relation) Project(cols ...string) *Relation {
	out := &Relation{Cols: append([]string(nil), cols...), Data: make([]Column, len(cols))}
	for i, c := range cols {
		out.Data[i] = r.Data[r.MustColumn(c)].capped()
	}
	k := 0
	for k < len(r.Sorted) && containsCol(cols, r.Sorted[k]) {
		k++
	}
	out.Sorted = append([]string(nil), r.Sorted[:k]...)
	out.Strict = r.Strict && k == len(r.Sorted)
	return out
}

// Dedup returns δ(r): distinct rows. This is the deduplication step of
// Algorithm 1, which repairs the fact duplication caused by projecting
// out a multi-valued dimension.
//
// A strict input needs no work at all (two identical rows would agree
// on the strict columns); an input sorted on every column deduplicates
// by comparing adjacent rows; any other hashes its rows. All paths keep
// the first occurrence, in input order.
func (r *Relation) Dedup() *Relation {
	if r.Strict && len(r.Sorted) > 0 {
		return r.shared()
	}
	n := r.Len()
	idx := make([]int32, 0, n)
	strict := len(r.Sorted) > 0 && len(r.Sorted) == len(r.Cols) && colsCover(r.Cols, r.Sorted)
	if strict {
		for i := 0; i < n; i++ {
			if i == 0 || !keysEqual(r.Data, i, r.Data, i-1) {
				idx = append(idx, int32(i))
			}
		}
	} else {
		t := newKeyTable(r.Data)
		for i := 0; i < n; i++ {
			if _, fresh := t.group(i); fresh {
				idx = append(idx, int32(i))
			}
		}
	}
	out := r.gather(idx)
	out.Sorted, out.Strict = append([]string(nil), r.Sorted...), r.Strict || strict
	return out
}

// containsCol reports whether cols contains c.
func containsCol(cols []string, c string) bool {
	for _, x := range cols {
		if x == c {
			return true
		}
	}
	return false
}

// colsCover reports whether every column in want appears in cols.
func colsCover(cols, want []string) bool {
	for _, c := range want {
		if !containsCol(cols, c) {
			return false
		}
	}
	return true
}

// hashKey hashes row i's cells over the key columns.
func hashKey(cols []Column, i int) uint64 {
	h := uint64(hash64.Offset)
	for k := range cols {
		h = hash64.Mix(h, cols[k].bits(i))
	}
	return h
}

// keysEqual compares row i of a to row j of b over aligned key columns:
// equal kinds and equal bits in every column.
func keysEqual(a []Column, i int, b []Column, j int) bool {
	for k := range a {
		if a[k].Kind != b[k].Kind || a[k].bits(i) != b[k].bits(j) {
			return false
		}
	}
	return true
}

// keyTable numbers the distinct keys — the cells of cols — of one
// relation's rows densely, in first-seen order. Rows are bucketed by
// hashKey and verified with keysEqual, so a hash collision costs a
// comparison, never correctness.
type keyTable struct {
	cols  []Column
	heads map[uint64]int32 // hash -> 1 + newest group with that hash
	next  []int32          // per group: 1 + the next group with its hash
	rep   []int32          // per group: its first row
}

func newKeyTable(cols []Column) *keyTable {
	return &keyTable{cols: cols, heads: map[uint64]int32{}}
}

// lookup returns the group whose key equals row i of probe (columns
// aligned with the table's), or -1.
func (t *keyTable) lookup(probe []Column, i int, h uint64) int32 {
	for g := t.heads[h]; g != 0; g = t.next[g-1] {
		if keysEqual(t.cols, int(t.rep[g-1]), probe, i) {
			return g - 1
		}
	}
	return -1
}

// group returns the group of the table's own row i, adding a new group
// (fresh = true) for a key not seen before.
func (t *keyTable) group(i int) (g int32, fresh bool) {
	h := hashKey(t.cols, i)
	if g := t.lookup(t.cols, i, h); g >= 0 {
		return g, false
	}
	g = int32(len(t.rep))
	t.rep = append(t.rep, int32(i))
	t.next = append(t.next, t.heads[h])
	t.heads[h] = g + 1
	return g, true
}

// columns returns r's columns named by cols.
func (r *Relation) columns(cols []string) []Column {
	out := make([]Column, len(cols))
	for i, c := range cols {
		out[i] = r.Data[r.MustColumn(c)]
	}
	return out
}

// NumericResolver supplies the numeric interpretation of a term ID, used
// by γ to feed sum/avg/min/max. The core package passes a resolver backed
// by the term dictionary.
type NumericResolver func(id dict.ID) (float64, bool)

// GroupAggregate returns γ_{groupCols, ⊕(valueCol)}(r): one output row
// per distinct group, carrying the group columns followed by a NumValue
// column named aggCol with the aggregate of valueCol.
//
// Groups whose accumulator reports no result (empty measure bag for
// functions requiring numeric input) are dropped, matching Definition 1's
// "if qj(I) is empty, the fact does not contribute to the cube".
// Output group order is deterministic (first-seen order), and every
// group's measures are fed in input order. An input sorted on exactly
// the group columns numbers its groups by comparing adjacent rows, with
// no hash table; first-seen order then coincides with the sorted order,
// so the output is identical to the hash path's.
func (r *Relation) GroupAggregate(groupCols []string, valueCol, aggCol string, f agg.Func, resolve NumericResolver) *Relation {
	keys := r.columns(groupCols)
	val := &r.Data[r.MustColumn(valueCol)]
	n := r.Len()
	gids := make([]int32, n)
	var reps []int32
	stream := r.sortedOnGroups(groupCols)
	if stream {
		for i := 0; i < n; i++ {
			if i == 0 || !keysEqual(keys, i, keys, i-1) {
				reps = append(reps, int32(i))
			}
			gids[i] = int32(len(reps) - 1)
		}
	} else {
		t := newKeyTable(keys)
		for i := 0; i < n; i++ {
			gids[i], _ = t.group(i)
		}
		reps = t.rep
	}
	accs := make([]agg.Accumulator, len(reps))
	for g := range accs {
		accs[g] = f.New()
	}
	feed(accs, gids, val, resolve)

	idx := make([]int32, 0, len(reps))
	nums := make([]float64, 0, len(reps))
	for g, acc := range accs {
		if v, ok := acc.Result(); ok {
			idx = append(idx, reps[g])
			nums = append(nums, v)
		}
	}
	out := &Relation{Cols: append(append([]string(nil), groupCols...), aggCol), Data: make([]Column, 0, len(keys)+1)}
	for k := range keys {
		out.Data = append(out.Data, keys[k].gather(idx))
	}
	out.Data = append(out.Data, Column{Kind: NumValue, Nums: nums})
	if stream {
		out.Sorted, out.Strict = append([]string(nil), r.Sorted[:len(keys)]...), true
	}
	return out
}

// sortedOnGroups reports whether the rows are sorted on exactly the
// group columns: some sorted prefix's column set equals groupCols'.
// Rows of one group are then adjacent.
func (r *Relation) sortedOnGroups(groupCols []string) bool {
	k := len(groupCols)
	if k == 0 || k > len(r.Sorted) {
		return false
	}
	prefix := r.Sorted[:k]
	return colsCover(groupCols, prefix) && colsCover(prefix, groupCols)
}

// feed folds every measure cell into its group's accumulator, in row
// order. Term cells resolve to numbers once per distinct ID.
func feed(accs []agg.Accumulator, gids []int32, c *Column, resolve NumericResolver) {
	switch {
	case c.Kind == NumValue:
		for i, g := range gids {
			accs[g].Add(dict.NoID, c.Nums[i], true)
		}
	case c.Kind == KeyValue:
		for i, g := range gids {
			accs[g].Add(dict.ID(c.Keys[i]), float64(c.Keys[i]), true)
		}
	case resolve == nil:
		for i, g := range gids {
			accs[g].Add(c.IDs[i], 0, false)
		}
	default:
		type number struct {
			v  float64
			ok bool
		}
		cache := make(map[dict.ID]number)
		for i, g := range gids {
			id := c.IDs[i]
			x, hit := cache[id]
			if !hit {
				x.v, x.ok = resolve(id)
				cache[id] = x
			}
			accs[g].Add(id, x.v, x.ok)
		}
	}
}

// Join returns r ⋈ other on leftCols = rightCols (bag semantics).
// Output columns are r's columns followed by other's columns minus the
// join columns; column name collisions outside the join columns are an
// error.
//
// Rows come out in r's row order, each left row followed by its
// matches in other's row order, so r's sort property carries over.
// When both sides are sorted on a single term key the join merges them;
// otherwise it hashes other's keys, groups other's rows into one run
// per key, and probes r's rows against the runs. Both paths emit the
// same rows in the same order.
func (r *Relation) Join(other *Relation, leftCols, rightCols []string) (*Relation, error) {
	if len(leftCols) != len(rightCols) {
		return nil, fmt.Errorf("algebra: join column arity mismatch %d vs %d", len(leftCols), len(rightCols))
	}
	for _, c := range leftCols {
		if r.Column(c) < 0 {
			return nil, fmt.Errorf("algebra: join column %q missing on left", c)
		}
	}
	for _, c := range rightCols {
		if other.Column(c) < 0 {
			return nil, fmt.Errorf("algebra: join column %q missing on right", c)
		}
	}
	outCols := append([]string(nil), r.Cols...)
	var keepRight []int
	for j, c := range other.Cols {
		if containsCol(rightCols, c) {
			continue
		}
		if containsCol(r.Cols, c) {
			return nil, fmt.Errorf("algebra: duplicate non-join column %q", c)
		}
		outCols = append(outCols, c)
		keepRight = append(keepRight, j)
	}
	lk, rk := r.columns(leftCols), other.columns(rightCols)
	var li, ri []int32
	if len(lk) == 1 && lk[0].Kind == TermValue && rk[0].Kind == TermValue &&
		len(r.Sorted) > 0 && r.Sorted[0] == leftCols[0] && len(other.Sorted) > 0 && other.Sorted[0] == rightCols[0] {
		li, ri = mergeJoin(lk[0].IDs, rk[0].IDs)
	} else {
		li, ri = hashJoin(lk, rk, r.Len(), other.Len())
	}
	out := &Relation{Cols: outCols, Data: make([]Column, 0, len(outCols))}
	for j := range r.Data {
		out.Data = append(out.Data, r.Data[j].gather(li))
	}
	for _, j := range keepRight {
		out.Data = append(out.Data, other.Data[j].gather(ri))
	}
	out.Sorted = append([]string(nil), r.Sorted...)
	return out, nil
}

// mergeJoin matches two ascending ID columns, returning the matched
// (left, right) row pairs in left order, right order within a left row.
func mergeJoin(l, r []dict.ID) (li, ri []int32) {
	for i, j := 0, 0; i < len(l) && j < len(r); {
		switch a := l[i]; {
		case a < r[j]:
			i++
		case a > r[j]:
			j++
		default:
			end := j
			for end < len(r) && r[end] == a {
				end++
			}
			for ; i < len(l) && l[i] == a; i++ {
				for k := j; k < end; k++ {
					li, ri = append(li, int32(i)), append(ri, int32(k))
				}
			}
			j = end
		}
	}
	return li, ri
}

// hashJoin numbers the right keys, lays the right rows out in one run
// per key (a stable counting sort, so each run keeps right order), then
// probes every left row against the runs.
func hashJoin(lk, rk []Column, nl, nr int) (li, ri []int32) {
	t := newKeyTable(rk)
	gids := make([]int32, nr)
	for j := range gids {
		gids[j], _ = t.group(j)
	}
	start := make([]int32, len(t.rep)+1)
	for _, g := range gids {
		start[g+1]++
	}
	for g := 1; g < len(start); g++ {
		start[g] += start[g-1]
	}
	runs := make([]int32, nr)
	fill := append([]int32(nil), start[:len(t.rep)]...)
	for j, g := range gids {
		runs[fill[g]] = int32(j)
		fill[g]++
	}
	for i := 0; i < nl; i++ {
		g := t.lookup(lk, i, hashKey(lk, i))
		if g < 0 {
			continue
		}
		for _, j := range runs[start[g]:start[g+1]] {
			li, ri = append(li, int32(i)), append(ri, j)
		}
	}
	return li, ri
}

// Sort orders the rows lexicographically (column by column) for
// deterministic output. It replaces r's columns with sorted copies, so
// relations sharing the old columns are unaffected, and clears the
// sort property.
func (r *Relation) Sort() {
	perm := make([]int32, r.Len())
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.Slice(perm, func(a, b int) bool {
		for k := range r.Data {
			if c := r.Data[k].compare(int(perm[a]), int(perm[b])); c != 0 {
				return c < 0
			}
		}
		return false
	})
	r.Data = r.gather(perm).Data
	r.Sorted, r.Strict = nil, false
}

// Equal reports whether two relations have identical schema and identical
// bags of rows (order-insensitive).
func Equal(a, b *Relation) bool {
	if len(a.Cols) != len(b.Cols) || a.Len() != b.Len() {
		return false
	}
	for i := range a.Cols {
		if a.Cols[i] != b.Cols[i] {
			return false
		}
	}
	// Multiset comparison: count a's rows per distinct row, then tick
	// off each of b's rows. Row counts are equal, so full drainage
	// follows from every b row matching.
	t := newKeyTable(a.Data)
	var count []int
	for i := 0; i < a.Len(); i++ {
		g, fresh := t.group(i)
		if fresh {
			count = append(count, 0)
		}
		count[g]++
	}
	for j := 0; j < b.Len(); j++ {
		g := t.lookup(b.Data, j, hashKey(b.Data, j))
		if g < 0 || count[g] == 0 {
			return false
		}
		count[g]--
	}
	return true
}

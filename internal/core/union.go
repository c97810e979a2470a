package core

import (
	"fmt"

	"rdfcube/internal/algebra"
	"rdfcube/internal/bgp"
	"rdfcube/internal/dict"
	"rdfcube/internal/rdf"
)

// EvalClassifierUnion evaluates the extended classifier c_Σ by
// Definition 2's *literal* construction: the union, over every value
// combination (χ1, ..., χn) ∈ Σ(d1) × ... × Σ(dn), of the classifier
// with each restricted dimension substituted by its value.
//
// The production path (EvalClassifier) instead evaluates c once and
// filters rows by Σ — equivalent, and far cheaper when Σ value sets are
// large, since the union path evaluates one BGP per combination. The
// union path is kept as an executable specification: the equivalence of
// the two is a property test, and the cost gap is an ablation benchmark.
func (e *Evaluator) EvalClassifierUnion(q *Query) (*algebra.Relation, error) {
	dims := q.Dims()
	cols := append([]string{q.Root()}, dims...)

	// Unrestricted: a single evaluation.
	if len(q.Sigma) == 0 {
		return e.EvalClassifier(q)
	}

	// Enumerate Σ(d1) × ... × Σ(dn) over the restricted dimensions.
	var restricted []string
	for _, d := range dims {
		if q.Sigma.Restricts(d) {
			restricted = append(restricted, d)
		}
	}
	combos := cartesian(q.Sigma, restricted)
	d := e.inst.Dict()
	seen := map[string]struct{}{}
	var rows [][]dict.ID
	for _, combo := range combos {
		// Substitute each restricted dimension with its chosen value.
		sub := q.Classifier.Clone()
		values := map[string]dict.ID{}
		skip := false
		for i, dim := range restricted {
			id, ok := d.Lookup(combo[i])
			if !ok {
				skip = true // value absent from the instance: no bindings
				break
			}
			values[dim] = id
			sub = sub.Substitute(dim, combo[i])
		}
		if skip {
			continue
		}
		res, err := bgp.EvalSetCtx(e.context(), e.inst, sub)
		if err != nil {
			return nil, err
		}
		// Re-insert the substituted constants as columns, in dims order.
		colOf := map[string]int{}
		for i, v := range res.Vars {
			colOf[v] = i
		}
		for _, row := range res.Rows {
			nr := make([]dict.ID, len(cols))
			for j, c := range cols {
				if id, ok := values[c]; ok {
					nr[j] = id
					continue
				}
				i, ok := colOf[c]
				if !ok {
					return nil, fmt.Errorf("core: union eval lost column %q", c)
				}
				nr[j] = row[i]
			}
			// Set semantics across the union: identical rows from
			// overlapping combinations collapse.
			k := rowKey(nr)
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			rows = append(rows, nr)
		}
	}
	return algebra.FromIDRows(cols, rows, nil), nil
}

// rowKey encodes a row of term IDs for dedup.
func rowKey(row []dict.ID) string {
	b := make([]byte, 0, len(row)*8)
	for _, id := range row {
		for s := 0; s < 64; s += 8 {
			b = append(b, byte(uint64(id)>>s))
		}
	}
	return string(b)
}

// cartesian enumerates Σ(d1) × ... × Σ(dn) for the listed dimensions.
func cartesian(sigma Sigma, dims []string) [][]rdf.Term {
	combos := [][]rdf.Term{{}}
	for _, d := range dims {
		var next [][]rdf.Term
		for _, prefix := range combos {
			for _, v := range sigma[d] {
				combo := make([]rdf.Term, len(prefix), len(prefix)+1)
				copy(combo, prefix)
				next = append(next, append(combo, v))
			}
		}
		combos = next
	}
	return combos
}

// AnswerUnion answers q via the union-based classifier — the executable
// form of Definition 2's semantics ("an extended analytical query can be
// seen as a union of standard AnQs"). For tests and ablations.
func (e *Evaluator) AnswerUnion(q *Query) (*algebra.Relation, error) {
	c, err := e.EvalClassifierUnion(q)
	if err != nil {
		return nil, err
	}
	mk, err := e.EvalMeasureKeyed(q)
	if err != nil {
		return nil, err
	}
	root := q.Root()
	joined, err := c.Join(mk, []string{root}, []string{root})
	if err != nil {
		return nil, err
	}
	colsPres := append([]string{root}, q.Dims()...)
	colsPres = append(colsPres, KeyCol, q.MeasureVar())
	return e.AnswerFromPres(q, joined.Project(colsPres...))
}

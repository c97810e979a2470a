// Package sparqlagg implements the SPARQL 1.1 grouping-and-aggregation
// fragment the paper's related-work section positions AnQs against:
//
//	SELECT ?age (COUNT(?site) AS ?n)
//	WHERE { ?x rdf:type :Blogger . ?x :hasAge ?age .
//	        ?x :wrotePost ?p . ?p :postedOn ?site }
//	GROUP BY ?age
//
// Semantics follow the SPARQL specification: the WHERE pattern is
// evaluated under bag semantics, solutions are partitioned by the GROUP
// BY variables, and the aggregate folds each partition's bindings of the
// aggregated variable.
//
// This is strictly less expressive than an analytical query: classifier
// and measure share one BGP, so one cannot count a blogger's posts while
// classifying the blogger by properties the posts lack, nor keep the
// per-fact measure-bag structure of Definition 1. The package exists (a)
// as a baseline the tests compare AnQs against, matching the paper's
// claim, and (b) because the rewriting optimizations apply to this
// restricted dialect too.
package sparqlagg

import (
	"fmt"
	"strings"

	"rdfcube/internal/agg"
	"rdfcube/internal/algebra"
	"rdfcube/internal/bgp"
	"rdfcube/internal/dict"
	"rdfcube/internal/sparql"
	"rdfcube/internal/store"
)

// Query is a parsed SPARQL aggregate SELECT.
type Query struct {
	// GroupVars are the plain projected variables, which must equal the
	// GROUP BY list (SPARQL requires projected non-aggregates to be
	// grouped).
	GroupVars []string
	// Agg is the aggregation function.
	Agg agg.Func
	// Distinct applies within the aggregate (e.g. COUNT(DISTINCT ?v)).
	Distinct bool
	// AggVar is the aggregated variable; Alias the output column name.
	AggVar, Alias string
	// Where is the graph pattern.
	Where []sparql.TriplePattern
}

// Parse parses the supported fragment:
//
//	[PREFIX name: <iri>]...
//	SELECT ?g1 ?g2 (FUNC(?v) AS ?alias) WHERE { ... } GROUP BY ?g1 ?g2
//
// FUNC ∈ COUNT, SUM, AVG, MIN, MAX, optionally with DISTINCT inside
// COUNT. Exactly one aggregate expression is supported.
func Parse(text string) (*Query, error) {
	prefixes := sparql.DefaultPrefixes()
	rest := strings.TrimSpace(text)
	for {
		lower := strings.ToLower(rest)
		if !strings.HasPrefix(lower, "prefix") {
			break
		}
		line := rest[len("prefix"):]
		colon := strings.Index(line, ":")
		if colon < 0 {
			return nil, fmt.Errorf("sparqlagg: malformed PREFIX")
		}
		name := strings.TrimSpace(line[:colon])
		line = strings.TrimSpace(line[colon+1:])
		if !strings.HasPrefix(line, "<") {
			return nil, fmt.Errorf("sparqlagg: PREFIX needs <IRI>")
		}
		end := strings.Index(line, ">")
		if end < 0 {
			return nil, fmt.Errorf("sparqlagg: unterminated PREFIX IRI")
		}
		prefixes[name] = line[1:end]
		rest = strings.TrimSpace(line[end+1:])
	}
	lower := strings.ToLower(rest)
	if !strings.HasPrefix(lower, "select") {
		return nil, fmt.Errorf("sparqlagg: expected SELECT")
	}
	rest = strings.TrimSpace(rest[len("select"):])
	whereIdx := strings.Index(strings.ToLower(rest), "where")
	if whereIdx < 0 {
		return nil, fmt.Errorf("sparqlagg: missing WHERE")
	}
	q := &Query{}
	if err := q.parseProjection(rest[:whereIdx]); err != nil {
		return nil, err
	}
	rest = strings.TrimSpace(rest[whereIdx+len("where"):])
	open := strings.Index(rest, "{")
	close_ := strings.LastIndex(rest, "}")
	if open != 0 || close_ < 0 {
		return nil, fmt.Errorf("sparqlagg: WHERE clause must be braced")
	}
	body := strings.ReplaceAll(rest[open+1:close_], "\n", " ")
	inner, err := parseWhere(body, prefixes)
	if err != nil {
		return nil, err
	}
	q.Where = inner

	tail := strings.TrimSpace(rest[close_+1:])
	if tail == "" {
		if len(q.GroupVars) > 0 {
			return nil, fmt.Errorf("sparqlagg: projected variables %v require GROUP BY", q.GroupVars)
		}
	} else {
		lowerTail := strings.ToLower(tail)
		if !strings.HasPrefix(lowerTail, "group by") {
			return nil, fmt.Errorf("sparqlagg: unsupported clause %q", tail)
		}
		var groupBy []string
		for _, tok := range strings.Fields(tail[len("group by"):]) {
			if !strings.HasPrefix(tok, "?") {
				return nil, fmt.Errorf("sparqlagg: GROUP BY supports only variables, got %q", tok)
			}
			groupBy = append(groupBy, tok[1:])
		}
		if err := sameStringSets(q.GroupVars, groupBy); err != nil {
			return nil, err
		}
	}
	return q, q.validate()
}

// parseProjection handles "?g1 ?g2 (COUNT(DISTINCT ?v) AS ?alias)".
func (q *Query) parseProjection(s string) error {
	s = strings.TrimSpace(s)
	for len(s) > 0 {
		switch {
		case s[0] == '?':
			end := strings.IndexAny(s, " \t(")
			if end < 0 {
				end = len(s)
			}
			q.GroupVars = append(q.GroupVars, s[1:end])
			s = strings.TrimSpace(s[end:])
		case s[0] == '(':
			depth := 0
			end := -1
			for i, r := range s {
				if r == '(' {
					depth++
				}
				if r == ')' {
					depth--
					if depth == 0 {
						end = i
						break
					}
				}
			}
			if end < 0 {
				return fmt.Errorf("sparqlagg: unbalanced parentheses in projection")
			}
			if err := q.parseAggExpr(s[1:end]); err != nil {
				return err
			}
			s = strings.TrimSpace(s[end+1:])
		default:
			return fmt.Errorf("sparqlagg: unexpected token at %q", s)
		}
	}
	return nil
}

// parseAggExpr handles "COUNT(DISTINCT ?v) AS ?alias".
func (q *Query) parseAggExpr(s string) error {
	if q.Agg != nil {
		return fmt.Errorf("sparqlagg: only one aggregate expression is supported")
	}
	asIdx := strings.LastIndex(strings.ToLower(s), " as ")
	if asIdx < 0 {
		return fmt.Errorf("sparqlagg: aggregate needs an AS alias in %q", s)
	}
	alias := strings.TrimSpace(s[asIdx+4:])
	if !strings.HasPrefix(alias, "?") {
		return fmt.Errorf("sparqlagg: alias must be a variable, got %q", alias)
	}
	q.Alias = alias[1:]
	expr := strings.TrimSpace(s[:asIdx])
	open := strings.Index(expr, "(")
	close_ := strings.LastIndex(expr, ")")
	if open < 0 || close_ < open {
		return fmt.Errorf("sparqlagg: malformed aggregate %q", expr)
	}
	funcName := strings.ToLower(strings.TrimSpace(expr[:open]))
	arg := strings.TrimSpace(expr[open+1 : close_])
	if strings.HasPrefix(strings.ToLower(arg), "distinct ") {
		q.Distinct = true
		arg = strings.TrimSpace(arg[len("distinct "):])
	}
	if !strings.HasPrefix(arg, "?") {
		return fmt.Errorf("sparqlagg: aggregate argument must be a variable, got %q", arg)
	}
	q.AggVar = arg[1:]
	f, err := agg.ByName(funcName)
	if err != nil {
		return fmt.Errorf("sparqlagg: %w", err)
	}
	if q.Distinct && f.Name() != "count" {
		return fmt.Errorf("sparqlagg: DISTINCT is only supported inside COUNT")
	}
	if q.Distinct {
		f = agg.CountDistinct
	}
	q.Agg = f
	return nil
}

func (q *Query) validate() error {
	if q.Agg == nil {
		return fmt.Errorf("sparqlagg: query has no aggregate expression")
	}
	if len(q.Where) == 0 {
		return fmt.Errorf("sparqlagg: empty WHERE clause")
	}
	bodyVars := map[string]bool{}
	for _, tp := range q.Where {
		for _, v := range tp.Vars() {
			bodyVars[v] = true
		}
	}
	for _, v := range append(append([]string(nil), q.GroupVars...), q.AggVar) {
		if !bodyVars[v] {
			return fmt.Errorf("sparqlagg: variable ?%s not bound in WHERE", v)
		}
	}
	for _, v := range q.GroupVars {
		if v == q.Alias {
			return fmt.Errorf("sparqlagg: alias ?%s collides with a grouped variable", v)
		}
	}
	return nil
}

func sameStringSets(a, b []string) error {
	as, bs := map[string]bool{}, map[string]bool{}
	for _, v := range a {
		as[v] = true
	}
	for _, v := range b {
		bs[v] = true
	}
	for v := range as {
		if !bs[v] {
			return fmt.Errorf("sparqlagg: projected ?%s missing from GROUP BY", v)
		}
	}
	for v := range bs {
		if !as[v] {
			return fmt.Errorf("sparqlagg: GROUP BY ?%s not projected", v)
		}
	}
	return nil
}

// parseWhere reuses the sparql package pattern syntax via a synthetic
// datalog query (the datalog body grammar is identical).
func parseWhere(body string, prefixes sparql.Prefixes) ([]sparql.TriplePattern, error) {
	var atoms []string
	for _, stmt := range sparql.SplitStatements(body) {
		stmt = strings.TrimSpace(stmt)
		if stmt != "" {
			atoms = append(atoms, stmt)
		}
	}
	if len(atoms) == 0 {
		return nil, fmt.Errorf("sparqlagg: empty WHERE clause")
	}
	// Each pattern's first variable serves as a head var so the synthetic
	// query validates; we only keep the patterns.
	synthetic := "q(" + firstVar(atoms) + ") :- " + strings.Join(atoms, ", ")
	q, err := sparql.ParseDatalog(synthetic, prefixes)
	if err != nil {
		return nil, fmt.Errorf("sparqlagg: WHERE clause: %w", err)
	}
	return q.Patterns, nil
}

// firstVar extracts some variable token from the atoms for the synthetic
// head.
func firstVar(atoms []string) string {
	for _, atom := range atoms {
		for _, tok := range strings.Fields(atom) {
			if strings.HasPrefix(tok, "?") {
				return tok[1:]
			}
		}
	}
	return "x"
}

// Eval answers the aggregate query over st: evaluate WHERE under bag
// semantics, group by GroupVars, aggregate AggVar. The result columns
// are GroupVars followed by Alias.
func Eval(st *store.Store, q *Query) (*algebra.Relation, error) {
	inner := &sparql.Query{
		Name:     "w",
		Head:     append(append([]string(nil), q.GroupVars...), q.AggVar),
		Patterns: q.Where,
	}
	if err := inner.Validate(); err != nil {
		return nil, err
	}
	res, err := bgp.EvalBag(st, inner)
	if err != nil {
		return nil, err
	}
	rel := algebra.FromIDRows(res.Vars, res.Rows, nil)
	resolve := func(id dict.ID) (float64, bool) {
		t, ok := st.Dict().Decode(id)
		if !ok {
			return 0, false
		}
		return t.AsFloat()
	}
	return rel.GroupAggregate(q.GroupVars, q.AggVar, q.Alias, q.Agg, resolve), nil
}

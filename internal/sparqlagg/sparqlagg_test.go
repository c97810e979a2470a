package sparqlagg

import (
	"sort"
	"strings"
	"testing"

	"rdfcube/internal/agg"
	"rdfcube/internal/algebra"
	"rdfcube/internal/core"
	"rdfcube/internal/rdf"
	"rdfcube/internal/sparql"
	"rdfcube/internal/store"
)

const ns = "http://example.org/"

func iri(s string) rdf.Term { return rdf.NewIRI(ns + s) }

// bloggerGraph reproduces the Example 1/2 instance.
func bloggerGraph() *store.Store {
	st := store.New()
	add := func(s, p, o rdf.Term) { st.Add(rdf.NewTriple(s, p, o)) }
	users := []struct {
		name  string
		age   int64
		city  string
		sites []string
	}{
		{"user1", 28, "Madrid", []string{"s1", "s1", "s2"}},
		{"user3", 35, "NY", []string{"s2"}},
		{"user4", 35, "NY", []string{"s3"}},
	}
	post := 0
	for _, u := range users {
		t := iri(u.name)
		add(t, rdf.Type, iri("Blogger"))
		add(t, iri("hasAge"), rdf.NewInt(u.age))
		add(t, iri("livesIn"), iri(u.city))
		for _, s := range u.sites {
			p := iri("post" + u.name + string(rune('a'+post)))
			post++
			add(t, iri("wrotePost"), p)
			add(p, iri("postedOn"), iri(s))
		}
	}
	return st
}

const queryText = `
PREFIX ex: <http://example.org/>
SELECT ?age ?city (COUNT(?site) AS ?n)
WHERE { ?x rdf:type ex:Blogger . ?x ex:hasAge ?age . ?x ex:livesIn ?city .
        ?x ex:wrotePost ?p . ?p ex:postedOn ?site }
GROUP BY ?age ?city`

func TestParse(t *testing.T) {
	q, err := Parse(queryText)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.GroupVars) != 2 || q.GroupVars[0] != "age" || q.GroupVars[1] != "city" {
		t.Errorf("GroupVars = %v", q.GroupVars)
	}
	if q.Agg.Name() != "count" || q.AggVar != "site" || q.Alias != "n" {
		t.Errorf("aggregate = %s(%s) AS %s", q.Agg.Name(), q.AggVar, q.Alias)
	}
	if len(q.Where) != 5 {
		t.Errorf("%d patterns, want 5", len(q.Where))
	}
}

func TestEvalMatchesPaperExample(t *testing.T) {
	st := bloggerGraph()
	q, err := Parse(queryText)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Eval(st, q)
	if err != nil {
		t.Fatal(err)
	}
	// SPARQL counts per (age, city): 28/Madrid → 3 sites, 35/NY → 2.
	if out.Len() != 2 {
		t.Fatalf("groups = %d, want 2: %v", out.Len(), out.Rows())
	}
	vals := map[string]float64{}
	for _, row := range out.Rows() {
		ageT, _ := st.Dict().Decode(row[0].ID)
		cityT, _ := st.Dict().Decode(row[1].ID)
		vals[ageT.Value()+"/"+cityT.Value()] = row[2].Num
	}
	if vals["28/"+ns+"Madrid"] != 3 || vals["35/"+ns+"NY"] != 2 {
		t.Errorf("vals = %v", vals)
	}
}

func TestEvalAgreesWithAnQWhenBodiesCoincide(t *testing.T) {
	// When the AnQ's classifier and measure share the SPARQL body, the
	// two formalisms agree — the "restricted case" of the related-work
	// discussion.
	st := bloggerGraph()
	q, err := Parse(queryText)
	if err != nil {
		t.Fatal(err)
	}
	sparqlOut, err := Eval(st, q)
	if err != nil {
		t.Fatal(err)
	}

	px := sparql.DefaultPrefixes()
	px[""] = ns
	c := sparql.MustParseDatalog(
		"c(x, age, city) :- x rdf:type :Blogger, x :hasAge age, x :livesIn city", px)
	m := sparql.MustParseDatalog(
		"m(x, site) :- x rdf:type :Blogger, x :wrotePost p, p :postedOn site", px)
	anq, err := core.New(c, m, agg.Count)
	if err != nil {
		t.Fatal(err)
	}
	anqOut, err := core.NewEvaluator(st).Answer(anq)
	if err != nil {
		t.Fatal(err)
	}
	// Same cells, same aggregates (schemas differ in column naming only).
	if sparqlOut.Len() != anqOut.Len() {
		t.Fatalf("SPARQL %d groups vs AnQ %d cells", sparqlOut.Len(), anqOut.Len())
	}
	key := func(rel *algebra.Relation) []string {
		var out []string
		for _, row := range rel.Rows() {
			s := ""
			for _, v := range row[:len(row)-1] {
				s += v.String() + "|"
			}
			s += row[len(row)-1].String()
			out = append(out, s)
		}
		sort.Strings(out)
		return out
	}
	a, b := key(sparqlOut), key(anqOut)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestAnQMoreExpressiveThanSPARQL(t *testing.T) {
	// A blogger without posts: the single-BGP SPARQL query silently
	// drops them from all groups, while an AnQ with a *separate* measure
	// also drops them (Definition 1) — but an AnQ can classify on
	// attributes the measure path lacks. Here: classify by age only
	// (user5 has an age but no city); SPARQL's one BGP requires the city
	// pattern and loses user5's sites.
	st := bloggerGraph()
	add := func(s, p, o rdf.Term) { st.Add(rdf.NewTriple(s, p, o)) }
	add(iri("user5"), rdf.Type, iri("Blogger"))
	add(iri("user5"), iri("hasAge"), rdf.NewInt(28))
	// no livesIn for user5
	add(iri("user5"), iri("wrotePost"), iri("p9"))
	add(iri("p9"), iri("postedOn"), iri("s9"))

	// SPARQL: grouping by age but the WHERE still needs livesIn to also
	// return the city-classified cube elsewhere — model the restricted
	// query that an analyst would write with one BGP:
	q, err := Parse(`
		PREFIX ex: <http://example.org/>
		SELECT ?age (COUNT(?site) AS ?n)
		WHERE { ?x rdf:type ex:Blogger . ?x ex:hasAge ?age . ?x ex:livesIn ?city .
		        ?x ex:wrotePost ?p . ?p ex:postedOn ?site }
		GROUP BY ?age`)
	if err != nil {
		t.Fatal(err)
	}
	sparqlOut, err := Eval(st, q)
	if err != nil {
		t.Fatal(err)
	}
	// AnQ: classifier needs only the age; measure is independent.
	px := sparql.DefaultPrefixes()
	px[""] = ns
	c := sparql.MustParseDatalog("c(x, age) :- x rdf:type :Blogger, x :hasAge age", px)
	m := sparql.MustParseDatalog(
		"m(x, site) :- x rdf:type :Blogger, x :wrotePost p, p :postedOn site", px)
	anq, err := core.New(c, m, agg.Count)
	if err != nil {
		t.Fatal(err)
	}
	anqOut, err := core.NewEvaluator(st).Answer(anq)
	if err != nil {
		t.Fatal(err)
	}
	get := func(rel *algebra.Relation, age string) float64 {
		for _, row := range rel.Rows() {
			t, _ := st.Dict().Decode(row[0].ID)
			if t.Value() == age {
				return row[len(row)-1].Num
			}
		}
		return -1
	}
	// The AnQ sees user5's site (28 → 3+1 = 4); SPARQL misses it (3).
	if got := get(anqOut, "28"); got != 4 {
		t.Errorf("AnQ count for age 28 = %g, want 4", got)
	}
	if got := get(sparqlOut, "28"); got != 3 {
		t.Errorf("SPARQL count for age 28 = %g, want 3 (city pattern drops user5)", got)
	}
}

func TestCountDistinct(t *testing.T) {
	st := bloggerGraph()
	q, err := Parse(`
		PREFIX ex: <http://example.org/>
		SELECT ?age (COUNT(DISTINCT ?site) AS ?n)
		WHERE { ?x rdf:type ex:Blogger . ?x ex:hasAge ?age .
		        ?x ex:wrotePost ?p . ?p ex:postedOn ?site }
		GROUP BY ?age`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Distinct {
		t.Fatal("DISTINCT not detected")
	}
	out, err := Eval(st, q)
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	for _, row := range out.Rows() {
		ageT, _ := st.Dict().Decode(row[0].ID)
		vals[ageT.Value()] = row[1].Num
	}
	// user1 posts on s1,s1,s2 → 2 distinct; 35-year-olds on s2,s3 → 2.
	if vals["28"] != 2 || vals["35"] != 2 {
		t.Errorf("distinct counts = %v", vals)
	}
}

func TestGlobalAggregateNoGroupBy(t *testing.T) {
	st := bloggerGraph()
	q, err := Parse(`
		PREFIX ex: <http://example.org/>
		SELECT (COUNT(?site) AS ?n)
		WHERE { ?x ex:wrotePost ?p . ?p ex:postedOn ?site }`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Eval(st, q)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || out.Rows()[0][0].Num != 5 {
		t.Errorf("global count = %v", out.Rows())
	}
}

func TestSumAvg(t *testing.T) {
	st := store.New()
	add := func(s, p, o rdf.Term) { st.Add(rdf.NewTriple(s, p, o)) }
	add(iri("a"), iri("grp"), iri("g1"))
	add(iri("a"), iri("val"), rdf.NewInt(10))
	add(iri("b"), iri("grp"), iri("g1"))
	add(iri("b"), iri("val"), rdf.NewInt(20))
	add(iri("c"), iri("grp"), iri("g2"))
	add(iri("c"), iri("val"), rdf.NewInt(7))
	for _, tc := range []struct {
		fn   string
		want map[string]float64
	}{
		{"SUM", map[string]float64{"g1": 30, "g2": 7}},
		{"AVG", map[string]float64{"g1": 15, "g2": 7}},
		{"MIN", map[string]float64{"g1": 10, "g2": 7}},
		{"MAX", map[string]float64{"g1": 20, "g2": 7}},
	} {
		q, err := Parse(`
			PREFIX ex: <http://example.org/>
			SELECT ?g (` + tc.fn + `(?v) AS ?out)
			WHERE { ?x ex:grp ?g . ?x ex:val ?v }
			GROUP BY ?g`)
		if err != nil {
			t.Fatalf("%s: %v", tc.fn, err)
		}
		out, err := Eval(st, q)
		if err != nil {
			t.Fatalf("%s: %v", tc.fn, err)
		}
		for _, row := range out.Rows() {
			g, _ := st.Dict().Decode(row[0].ID)
			local := strings.TrimPrefix(g.Value(), ns)
			if row[1].Num != tc.want[local] {
				t.Errorf("%s(%s) = %g, want %g", tc.fn, local, row[1].Num, tc.want[local])
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`SELECT ?g (COUNT(?v) AS ?n) WHERE { ?x <http://e/p> ?v }`,                                  // ?g unbound... actually bound check
		`SELECT ?g (COUNT(?v) AS ?n) WHERE { ?x <http://e/p> ?v . ?x <http://e/g> ?g }`,             // missing GROUP BY
		`SELECT (COUNT(?v) AS ?n) (SUM(?v) AS ?m) WHERE { ?x <http://e/p> ?v }`,                     // two aggregates
		`SELECT (MEDIAN(?v) AS ?n) WHERE { ?x <http://e/p> ?v }`,                                    // unknown function
		`SELECT (SUM(DISTINCT ?v) AS ?n) WHERE { ?x <http://e/p> ?v }`,                              // DISTINCT outside COUNT
		`SELECT (COUNT(?v) AS ?n) WHERE { ?x <http://e/p> ?w }`,                                     // agg var unbound
		`SELECT (COUNT(?v)) WHERE { ?x <http://e/p> ?v }`,                                           // missing AS
		`SELECT ?v (COUNT(?x) AS ?v) WHERE { ?x <http://e/p> ?v } GROUP BY ?v`,                      // alias collision
		`SELECT (COUNT(?v) AS ?n) WHERE { ?x <http://e/p> ?v } ORDER BY ?n`,                         // unsupported clause
		`SELECT (COUNT(?v) AS ?n) FROM <http://g> WHERE { ?x <http://e/p> ?v }`,                     // FROM unsupported
		`SELECT ?g (COUNT(?v) AS ?n) WHERE { ?x <http://e/g> ?g . ?x <http://e/p> ?v } GROUP BY ?h`, // GROUP BY mismatch
	}
	for _, text := range bad {
		if _, err := Parse(text); err == nil {
			t.Errorf("accepted malformed query %q", text)
		}
	}
}

func TestIRIWithDotsInWhere(t *testing.T) {
	// Full IRIs contain dots; the statement splitter must not break them.
	st := store.New()
	st.Add(rdf.NewTriple(iri("a"), rdf.NewIRI("http://www.w3.org/x"), rdf.NewInt(1)))
	q, err := Parse(`
		SELECT (COUNT(?v) AS ?n)
		WHERE { ?x <http://www.w3.org/x> ?v }`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Eval(st, q)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || out.Rows()[0][0].Num != 1 {
		t.Errorf("count = %v", out.Rows())
	}
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"

	"rdfcube/internal/datagen"
	"rdfcube/internal/nt"
	"rdfcube/internal/server"
	"rdfcube/internal/store"
)

// Workload describes one traffic mix against one daemon configuration.
type Workload struct {
	Name string
	// Why the workload exists: which layers it exercises and which it
	// bypasses.
	Why string
	// Materialize serves the analytical-schema instance (POST
	// /materialize after boot); otherwise the saturated base graph.
	Materialize bool
	// Mapped runs the daemon durable and mmap'd (-data-dir -mmap).
	Mapped bool
	// Readers is the number of closed-loop query clients.
	Readers int
	// Writer adds one closed-loop insert client beside the readers.
	Writer bool
	// Traffic builds the seeded request streams.
	Traffic func(seed int64) Traffic
	// Shapes lists the distinct requests the traced run probes in core
	// and algebra, each base query (step "open") before its OLAP steps.
	Shapes func(seed int64) []Req
}

var workloads = []Workload{
	{
		Name:        "cube-explore",
		Why:         "hit-dominated analyst sessions over a Zipf-popular pool of registered cubes: viewreg, core rewrites, algebra γ, render",
		Materialize: true,
		Readers:     2,
		Traffic: func(seed int64) Traffic {
			ex := NewExplorer(seed)
			return Traffic{
				Warm:   ex.Bases(),
				Reader: func(i int) func() []Req { return ex.Stream(seed*1000 + int64(i)) },
				Class:  ":Blogger",
			}
		},
		Shapes: func(seed int64) []Req { return NewExplorer(seed).Distinct() },
	},
	{
		Name:        "cold-cubes",
		Why:         "every request a distinct cube shape sent direct: store → bgp → core → algebra with the registry bypassed",
		Materialize: true,
		Readers:     1,
		Traffic: func(seed int64) Traffic {
			return Traffic{
				Reader: func(i int) func() []Req {
					gen := NewColdGen(seed + int64(i))
					return func() []Req { return []Req{gen.Next()} }
				},
				Class: ":Blogger",
			}
		},
		Shapes: func(seed int64) []Req {
			gen := NewColdGen(seed)
			return []Req{gen.Next(), gen.Next(), gen.Next()}
		},
	},
	{
		Name:    "ingest-mix",
		Why:     "one writer beside one reader on a durable mmap'd daemon: incr maintenance, WAL, delta, compaction, crash recovery",
		Mapped:  true,
		Readers: 1,
		Writer:  true,
		Traffic: func(seed int64) Traffic {
			rd := NewIngestReader(seed)
			return Traffic{
				Warm:   rd.Distinct(),
				Reader: func(int) func() []Req { return func() []Req { return []Req{rd.Next()} } },
				Class:  ":BlogAuthor",
			}
		},
		Shapes: func(seed int64) []Req { return NewIngestReader(seed).Distinct() },
	},
}

func workloadByName(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Scale sizes the dataset and the write batches.
type Scale struct {
	Bloggers      int // base dataset size
	ProbeBatch    int // new bloggers per insert of the in-memory write probe
	ProbeInserts  int // inserts per round of the write probe (one round per boot)
	WriterBatch   int // new bloggers per insert of the ingest-mix writer
	WriterInserts int // inserts of the ingest-mix writer (its timed phase)
}

// DefaultScale is the benchmark's dataset: 12k bloggers, 3 dimensions
// (~193k base triples, ~242k in the materialized instance). At 20k
// bloggers a run took up to a minute on a 2-core host with CPU steal,
// too slow to repeat a run dozens of times within an hour.
//
// The ingest-mix writer sends a fixed 180 batches of 20 bloggers
// (25,200 triples), so on any host its timed phase crosses the daemon's
// default 8192-triple compaction threshold three times and ends with
// writes past the last compaction.
var DefaultScale = Scale{Bloggers: 12000, ProbeBatch: 10, ProbeInserts: 100, WriterBatch: 20, WriterInserts: 180}

// dims is the number of blogger dimensions generated and queried.
const dims = 3

// writeDataset generates the seeded blogger graph and writes it as
// N-Triples, returning the triple count. The daemon sees only this
// file.
func writeDataset(path string, seed int64, bloggers int) (int, error) {
	cfg := datagen.DefaultBloggerConfig()
	cfg.Seed = seed
	cfg.Bloggers = bloggers
	cfg.Dimensions = dims
	st, err := cfg.Generate()
	if err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	nw := nt.NewWriter(f)
	d := st.Dict()
	var wErr error
	st.ForEach(store.Pattern{}, func(t store.IDTriple) bool {
		tr, ok := d.DecodeTriple(t.S, t.P, t.O)
		if !ok {
			return true
		}
		wErr = nw.Write(tr)
		return wErr == nil
	})
	if wErr == nil {
		wErr = nw.Flush()
	}
	if wErr == nil {
		wErr = f.Close()
	}
	if wErr != nil {
		return 0, fmt.Errorf("writing %s: %w", path, wErr)
	}
	return st.Len(), nil
}

// schemaRequest is the blogger analytical schema of the paper's
// Figure 1 over the generated dimensions, as a POST /materialize body.
func schemaRequest() server.SchemaRequest {
	req := server.SchemaRequest{
		Name:     "bloggers",
		Prefixes: map[string]string{"": datagen.NS},
		Nodes: []server.SchemaNode{
			{Class: ":Blogger", Query: "n(x) :- x rdf:type :BlogAuthor"},
			{Class: ":BlogPost", Query: "n(p) :- u :wrotePost p"},
			{Class: ":Site", Query: "n(s) :- p :postedOn s"},
			{Class: ":Value", Query: "n(w) :- p :hasWordCount w"},
		},
		Edges: []server.SchemaEdge{
			{Property: ":wrotePost", From: ":Blogger", To: ":BlogPost", Query: "e(u, p) :- u rdf:type :BlogAuthor, u :wrotePost p"},
			{Property: ":postedOn", From: ":BlogPost", To: ":Site", Query: "e(p, s) :- p :postedOn s"},
			{Property: ":hasWordCount", From: ":BlogPost", To: ":Value", Query: "e(p, w) :- p :hasWordCount w"},
		},
	}
	for d := 0; d < dims; d++ {
		prop := datagen.DimensionProps[d]
		req.Edges = append(req.Edges, server.SchemaEdge{
			Property: ":" + prop, From: ":Blogger", To: ":Value",
			Query: fmt.Sprintf("e(u, v) :- u rdf:type :BlogAuthor, u :%s v", prop),
		})
	}
	return req
}

// Cube is a base analytical query shape.
type Cube struct {
	Class string // fact class: :Blogger (instance) or :BlogAuthor (base)
	Dims  []int  // dimensions in the classifier head (indexes into datagen.DimensionProps)
	Exist int    // dimension bound existentially in the body (-1: none); DRILL-IN target
	Agg   string
	Sigma map[int][]int // dimension → allowed value indexes
}

func dimVar(d int) string   { return "d" + strconv.Itoa(d) }
func existVar(d int) string { return "e" + strconv.Itoa(d) }

// dimTerm renders value v of dimension d in constant-term syntax.
func dimTerm(d, v int) string {
	switch datagen.DimensionProps[d] {
	case "hasAge":
		return strconv.Itoa(18 + v)
	case "memberSince":
		return strconv.Itoa(2000 + v)
	default:
		return fmt.Sprintf(":%s_val%d", datagen.DimensionProps[d], v)
	}
}

func dimTerms(d int, vals []int) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = dimTerm(d, v)
	}
	return out
}

// Request renders the base query, transformed by ops.
func (c Cube) Request(ops ...server.OpSpec) server.QueryRequest {
	head := []string{"x"}
	body := []string{"x rdf:type " + c.Class}
	for _, d := range c.Dims {
		head = append(head, dimVar(d))
		body = append(body, fmt.Sprintf("x :%s %s", datagen.DimensionProps[d], dimVar(d)))
	}
	if c.Exist >= 0 {
		body = append(body, fmt.Sprintf("x :%s %s", datagen.DimensionProps[c.Exist], existVar(c.Exist)))
	}
	measure := fmt.Sprintf("m(x, v) :- x rdf:type %s, x :wrotePost p, p :hasWordCount v", c.Class)
	if c.Agg == "count" || c.Agg == "countdistinct" {
		measure = fmt.Sprintf("m(x, v) :- x rdf:type %s, x :wrotePost p, p :postedOn v", c.Class)
	}
	req := server.QueryRequest{
		Classifier: fmt.Sprintf("c(%s) :- %s", strings.Join(head, ", "), strings.Join(body, ", ")),
		Measure:    measure,
		Agg:        c.Agg,
		Prefixes:   map[string]string{"": datagen.NS},
		Ops:        ops,
	}
	if len(c.Sigma) > 0 {
		req.Sigma = map[string][]string{}
		for d, vals := range c.Sigma {
			req.Sigma[dimVar(d)] = dimTerms(d, vals)
		}
	}
	return req
}

// Req is one /query request, pre-encoded.
type Req struct {
	Label string // base cube and step, for the report
	Step  string // open, slice, dice, drillout, drillin
	Body  []byte
}

func encode(label, step string, qr server.QueryRequest) Req {
	b, err := json.Marshal(qr)
	if err != nil {
		panic(err) // plain structs of strings: cannot fail
	}
	return Req{Label: label, Step: step, Body: b}
}

// freeDims returns the head dimensions Σ does not restrict.
func (c Cube) freeDims() []int {
	var out []int
	for _, d := range c.Dims {
		if _, ok := c.Sigma[d]; !ok {
			out = append(out, d)
		}
	}
	return out
}

// Session returns one analyst session over c: open, slice (first
// dimension Σ leaves free), dice (last free dimension), drill-out (last
// dimension), drill-in (when c has an existential variable) and re-ask.
// Which dimensions each step touches is fixed per cube, so every seed
// sees operations of the same cost; only the slice value and dice set
// are drawn from rng, once per cube, which also keeps the pool's
// distinct requests few enough to check each against a direct answer.
func (c Cube) Session(label string, rng *rand.Rand) []Req {
	free := c.freeDims()
	sd, dd := free[0], free[len(free)-1]
	card := datagen.DimCardinality(dd)
	perm := rng.Perm(card)
	diceVals := perm[:(card+2)/3]
	sort.Ints(diceVals)
	out := []Req{
		encode(label, "open", c.Request()),
		encode(label, "slice", c.Request(server.OpSpec{Op: "slice", Dim: dimVar(sd), Value: dimTerm(sd, rng.Intn(datagen.DimCardinality(sd)))})),
		encode(label, "dice", c.Request(server.OpSpec{Op: "dice", Restrictions: map[string][]string{dimVar(dd): dimTerms(dd, diceVals)}})),
		encode(label, "drillout", c.Request(server.OpSpec{Op: "drillout", Dims: []string{dimVar(c.Dims[len(c.Dims)-1])}})),
	}
	if c.Exist >= 0 {
		out = append(out, encode(label, "drillin", c.Request(server.OpSpec{Op: "drillin", Dim: existVar(c.Exist)})))
	}
	return append(out, encode(label, "open", c.Request()))
}

// explorePool is cube-explore's base cubes, most popular first: they
// vary the dimensions, the aggregate, Σ and the existential variable.
// The two most popular answer 1,500 cells, so that the median query
// (a cached answer of one of them) sits inside a cluster of like
// latencies instead of on the edge between cheap rewrites and cached
// answers, where it would jump between runs.
func explorePool() []Cube {
	half := make([]int, 25)
	for i := range half {
		half[i] = i
	}
	return []Cube{
		{Class: ":Blogger", Dims: []int{0, 1}, Exist: 2, Agg: "count"},
		{Class: ":Blogger", Dims: []int{0, 1}, Exist: 2, Agg: "sum"},
		{Class: ":Blogger", Dims: []int{0, 1, 2}, Exist: -1, Agg: "count"},
		{Class: ":Blogger", Dims: []int{0, 2}, Exist: 1, Agg: "avg", Sigma: map[int][]int{2: {0, 1}}},
		{Class: ":Blogger", Dims: []int{1, 2}, Exist: 0, Agg: "max"},
		{Class: ":Blogger", Dims: []int{0, 1}, Exist: 2, Agg: "countdistinct", Sigma: map[int][]int{0: half}},
	}
}

// ingestPool is ingest-mix's registered cubes over the base
// vocabulary, each Σ-restricted to a sixth of the cities so that
// maintaining them (under the write lock, on every insert) leaves room
// for enough operations per run to read steady percentiles.
func ingestPool() []Cube {
	return []Cube{
		{Class: ":BlogAuthor", Dims: []int{0, 1}, Exist: 2, Agg: "count", Sigma: map[int][]int{1: {0, 1, 2, 3, 4}}},
		{Class: ":BlogAuthor", Dims: []int{1, 2}, Exist: 0, Agg: "sum", Sigma: map[int][]int{1: {5, 6, 7, 8, 9}}},
	}
}

// cycle yields indexes in seeded random order while keeping their
// proportions exact: it walks a fixed multiset of indexes, reshuffled
// at the start of every pass. Two seeds therefore see the same mix,
// only in a different order, which keeps percentiles steady across
// seeds.
type cycle struct {
	rng   *rand.Rand
	items []int
	pos   int
}

func newCycle(rng *rand.Rand, counts []int) *cycle {
	c := &cycle{rng: rng}
	for i, n := range counts {
		for j := 0; j < n; j++ {
			c.items = append(c.items, i)
		}
	}
	c.pos = len(c.items)
	return c
}

// ones is the counts of a cycle that visits each of n indexes once per
// pass.
func ones(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

func (c *cycle) next() int {
	if c.pos == len(c.items) {
		c.rng.Shuffle(len(c.items), func(i, j int) { c.items[i], c.items[j] = c.items[j], c.items[i] })
		c.pos = 0
	}
	c.pos++
	return c.items[c.pos-1]
}

// zipfCounts are the session counts per pass over the six pool cubes:
// Zipf with s=1 (1/i of the most popular), rounded to a pass of 20.
var zipfCounts = []int{8, 4, 3, 2, 2, 1}

// Explorer draws cube-explore sessions: a Zipf-popular base cube, then
// that cube's fixed session.
type Explorer struct {
	sessions [][]Req
}

func NewExplorer(seed int64) *Explorer {
	rng := rand.New(rand.NewSource(seed))
	e := &Explorer{}
	for i, c := range explorePool() {
		e.sessions = append(e.sessions, c.Session(fmt.Sprintf("P%d", i), rng))
	}
	return e
}

// Stream returns one client's session stream, seeded per client.
func (e *Explorer) Stream(seed int64) func() []Req {
	c := newCycle(rand.New(rand.NewSource(seed)), zipfCounts)
	return func() []Req { return e.sessions[c.next()] }
}

// Bases returns each pool cube's open request (the warm-up set).
func (e *Explorer) Bases() []Req {
	out := make([]Req, len(e.sessions))
	for i, s := range e.sessions {
		out[i] = s[0]
	}
	return out
}

// Distinct returns every distinct request of the pool.
func (e *Explorer) Distinct() []Req {
	var out []Req
	seen := map[string]bool{}
	for _, s := range e.sessions {
		for _, r := range s {
			if !seen[string(r.Body)] {
				seen[string(r.Body)] = true
				out = append(out, r)
			}
		}
	}
	return out
}

// coldTemplates are cold-cubes' shape families: head dimensions and
// the existential variable.
var coldTemplates = []struct {
	dims  []int
	exist int
}{
	{[]int{0, 1}, 2}, {[]int{0, 2}, 1}, {[]int{1, 2}, 0},
	{[]int{0, 1, 2}, -1}, {[]int{0, 1}, -1}, {[]int{1, 2}, -1}, {[]int{0, 2}, -1},
}

var aggs = []string{"count", "sum", "avg", "min", "max", "countdistinct"}

// ColdGen draws distinct direct cube shapes: every template once per
// pass in seeded order, each with a random aggregate and a Σ
// restricting one head dimension to a random half of its values (which
// makes repeats vanishingly rare; they are redrawn).
type ColdGen struct {
	rng       *rand.Rand
	templates *cycle
	seen      map[string]bool
}

func NewColdGen(seed int64) *ColdGen {
	rng := rand.New(rand.NewSource(seed))
	return &ColdGen{rng: rng, templates: newCycle(rng, ones(len(coldTemplates))), seen: map[string]bool{}}
}

func (g *ColdGen) Next() Req {
	t := coldTemplates[g.templates.next()]
	for {
		c := Cube{Class: ":Blogger", Dims: t.dims, Exist: t.exist, Agg: aggs[g.rng.Intn(len(aggs))]}
		d := t.dims[g.rng.Intn(len(t.dims))]
		card := datagen.DimCardinality(d)
		vals := g.rng.Perm(card)[:(card+1)/2]
		sort.Ints(vals)
		c.Sigma = map[int][]int{d: vals}
		qr := c.Request()
		qr.Direct = true
		r := encode(fmt.Sprintf("%s/%dd", c.Agg, len(c.Dims)), "open", qr)
		if !g.seen[string(r.Body)] {
			g.seen[string(r.Body)] = true
			return r
		}
	}
}

// IngestReader cycles through the registered cubes of ingest-mix and
// their rewrites, each once per pass in seeded order.
type IngestReader struct {
	reqs  []Req
	order *cycle
}

func NewIngestReader(seed int64) *IngestReader {
	rng := rand.New(rand.NewSource(seed))
	r := &IngestReader{}
	seen := map[string]bool{}
	for i, c := range ingestPool() {
		for _, q := range c.Session(fmt.Sprintf("R%d", i), rng) {
			if !seen[string(q.Body)] {
				seen[string(q.Body)] = true
				r.reqs = append(r.reqs, q)
			}
		}
	}
	r.order = newCycle(rng, ones(len(r.reqs)))
	return r
}

func (r *IngestReader) Next() Req { return r.reqs[r.order.next()] }

// Distinct returns every request the reader can draw.
func (r *IngestReader) Distinct() []Req { return r.reqs }

// Bases returns the registered cubes' open requests.
func (r *IngestReader) Bases() []Req {
	var out []Req
	for _, q := range r.reqs {
		if q.Step == "open" {
			out = append(out, q)
		}
	}
	return out
}

// Batches generates insert bodies of new, seeded bloggers: each has a
// value on every generated dimension and one post (7 triples), in the
// vocabulary the daemon serves (class :Blogger on the materialized
// instance, :BlogAuthor on the base graph). Blogger IRIs carry the
// stream name, so different streams never collide.
type Batches struct {
	rng    *rand.Rand
	class  string
	stream string
	size   int
	n      int
}

func NewBatches(seed int64, class, stream string, size int) *Batches {
	return &Batches{rng: rand.New(rand.NewSource(seed)), class: class, stream: stream, size: size}
}

// TriplesPerBlogger is the triple count of one generated blogger.
const TriplesPerBlogger = 4 + dims

// Next returns the next batch as an N-Triples body.
func (b *Batches) Next() []byte {
	var sb strings.Builder
	w := bufio.NewWriter(&sb)
	iri := func(local string) string { return "<" + datagen.NS + local + ">" }
	typ := "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
	for i := 0; i < b.size; i++ {
		u := iri(fmt.Sprintf("%s_b%d_u%d", b.stream, b.n, i))
		p := iri(fmt.Sprintf("%s_b%d_p%d", b.stream, b.n, i))
		fmt.Fprintf(w, "%s %s %s .\n", u, typ, iri(strings.TrimPrefix(b.class, ":")))
		for d := 0; d < dims; d++ {
			v := b.rng.Intn(datagen.DimCardinality(d))
			fmt.Fprintf(w, "%s %s %s .\n", u, iri(datagen.DimensionProps[d]), datagen.DimValue(d, v).String())
		}
		fmt.Fprintf(w, "%s %s %s .\n", u, iri("wrotePost"), p)
		fmt.Fprintf(w, "%s %s %s .\n", p, iri("postedOn"), iri(fmt.Sprintf("site%d", b.rng.Intn(50))))
		fmt.Fprintf(w, "%s %s \"%d\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n", p, iri("hasWordCount"), 50+b.rng.Intn(1000))
	}
	b.n++
	if err := w.Flush(); err != nil {
		panic(err) // strings.Builder never fails
	}
	return []byte(sb.String())
}

// Traffic is a workload's seeded request streams.
type Traffic struct {
	// Warm is asked once before timing, registering the pool's views.
	Warm []Req
	// Reader returns reader i's stream; each call yields the next
	// requests (a whole session for cube-explore).
	Reader func(i int) func() []Req
	// Class is the fact class of inserted bloggers.
	Class string
}

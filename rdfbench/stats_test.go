package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"rdfcube/internal/nt"
)

func TestPercentileNearestRank(t *testing.T) {
	var l Latencies
	for i := 10; i >= 1; i-- { // unsorted input
		l = append(l, time.Duration(i)*time.Millisecond)
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0.5, 5 * time.Millisecond},
		{0.9, 9 * time.Millisecond},
		{0.91, 10 * time.Millisecond},
		{1, 10 * time.Millisecond},
		{0.01, 1 * time.Millisecond},
	} {
		if got := l.Percentile(tc.q); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.q*100, got, tc.want)
		}
	}
	if l[0] != 10*time.Millisecond {
		t.Errorf("Percentile reordered its receiver")
	}
	if got := (Latencies{}).Percentile(0.5); got != 0 {
		t.Errorf("empty p50 = %v, want 0", got)
	}
	if got := (Latencies{7}).Percentile(0.9); got != 7 {
		t.Errorf("single-sample p90 = %v, want 7", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

const exposition = `# HELP rdfcube_viewreg_answers_total Queries answered by the view registry, by strategy.
# TYPE rdfcube_viewreg_answers_total counter
rdfcube_viewreg_answers_total{strategy="cached"} 12
rdfcube_viewreg_answers_total{strategy="direct"} 3
rdfcube_wal_sync_seconds_bucket{le="+Inf"} 5
rdfcube_wal_sync_seconds_sum 0.25
rdfcube_wal_sync_seconds_count 5
rdfcube_viewreg_bytes 1.048576e+06
garbage line without value x
`

func TestWindowsAndMedianRound(t *testing.T) {
	ms := time.Millisecond
	// Three 1 s windows: two of 1 ms operations and one slowed to 50 ms.
	var samples []Sample
	for i := 0; i < 30; i++ {
		lat := ms
		if i >= 10 && i < 20 {
			lat = 50 * ms
		}
		samples = append(samples, Sample{End: time.Duration(i) * 100 * ms, Lat: lat})
	}
	samples = append(samples, Sample{End: 3 * time.Second, Lat: ms}) // ends exactly at the span: last window
	rs := windows(samples, 3*time.Second, 3)
	if len(rs) != 3 || rs[1].P50 != 50*ms || rs[0].P90 != ms {
		t.Fatalf("windows = %+v", rs)
	}
	if rs[0].PerSec != 10 || rs[2].PerSec != 11 {
		t.Errorf("rates %v, %v; want 10, 11", rs[0].PerSec, rs[2].PerSec)
	}
	p50, p90, perSec := medianRound(rs)
	if p50 != 1 || p90 != 1 || perSec != 10 {
		t.Errorf("medianRound = %v, %v, %v; want 1, 1, 10 (the slow window ignored)", p50, p90, perSec)
	}
}

func TestParsePromAndDelta(t *testing.T) {
	before, err := ParseProm(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	after, err := ParseProm(strings.NewReader(strings.NewReplacer(
		`{strategy="cached"} 12`, `{strategy="cached"} 40`,
		"rdfcube_wal_sync_seconds_count 5", "rdfcube_wal_sync_seconds_count 9",
	).Replace(exposition)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		series string
		want   float64
	}{
		{`rdfcube_viewreg_answers_total{strategy="cached"}`, 28},
		{`rdfcube_viewreg_answers_total{strategy="direct"}`, 0},
		{"rdfcube_wal_sync_seconds_count", 4},
		{"rdfcube_absent_total", 0},
	} {
		if got := Delta(before, after, tc.series); got != tc.want {
			t.Errorf("Delta(%s) = %v, want %v", tc.series, got, tc.want)
		}
	}
	if got := after["rdfcube_viewreg_bytes"]; got != 1<<20 {
		t.Errorf("gauge = %v, want %v", got, 1<<20)
	}
	if _, ok := after["garbage line without value"]; ok {
		t.Errorf("malformed line parsed")
	}
}

const (
	rowA    = `["\"18\"^^<http://www.w3.org/2001/XMLSchema#integer>","42"]`
	rowB    = `["\"19\"^^<http://www.w3.org/2001/XMLSchema#integer>","7"]`
	ansHead = `{"strategy":"cached","cols":["d0","v"],"rows":[`
	ansTail = `],"cells":2,"elapsed_ns":123456}`
	answer  = ansHead + rowA + "," + rowB + ansTail
)

func TestSameAnswer(t *testing.T) {
	direct := strings.NewReplacer(`"strategy":"cached"`, `"strategy":"direct"`, "123456", "98765432").Replace(answer)
	if !SameAnswer([]byte(answer), []byte(direct)) {
		t.Fatalf("answers differing only in strategy and elapsed_ns compare unequal")
	}
	for name, doctored := range map[string]string{
		"cell":      strings.Replace(direct, `"42"`, `"43"`, 1),
		"row order": ansHead + rowB + "," + rowA + ansTail,
		"cells":     strings.Replace(direct, `"cells":2`, `"cells":3`, 1),
		"truncated": direct[:len(direct)-30],
	} {
		if SameAnswer([]byte(answer), []byte(doctored)) {
			t.Errorf("doctored response (%s) compares equal", name)
		}
	}
}

func TestStrategyOfAndCost(t *testing.T) {
	if got := strategyOf([]byte(answer)); got != "cached" {
		t.Errorf("strategyOf = %q", got)
	}
	if got := strategyOf([]byte(`{"error":"x"}`)); got != "unknown" {
		t.Errorf("strategyOf(error) = %q", got)
	}
	c := parseCost("scanned=10 produced=4 seeks=2 nexts=0 batches=1 bytes=99 wall_ns=5 cpu_ns=6")
	if c["scanned"] != 10 || c["produced"] != 4 || c["seeks"] != 2 || c["bytes"] != 99 {
		t.Errorf("parseCost = %v", c)
	}
}

func TestDirectBody(t *testing.T) {
	req := NewColdGen(1).Next() // direct
	reg := directBody(req.Body, false)
	if bytes.Contains(reg, []byte(`"direct"`)) {
		t.Fatalf("registry body still direct: %s", reg)
	}
	if got := directBody(reg, true); !bytes.Equal(got, req.Body) {
		t.Errorf("round trip:\n got %s\nwant %s", got, req.Body)
	}
}

func TestRequestStreamsAreSeeded(t *testing.T) {
	a, b := NewExplorer(3).Distinct(), NewExplorer(3).Distinct()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("explorer pools differ in size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i].Body, b[i].Body) {
			t.Fatalf("explorer request %d differs for the same seed", i)
		}
	}
	g := NewColdGen(5)
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		r := g.Next()
		if seen[string(r.Body)] {
			t.Fatalf("cold-cubes repeated a shape after %d requests", i)
		}
		seen[string(r.Body)] = true
	}
	x, y := NewBatches(7, ":BlogAuthor", "w", 20).Next(), NewBatches(7, ":BlogAuthor", "w", 20).Next()
	if !bytes.Equal(x, y) {
		t.Fatalf("insert batches differ for the same seed")
	}
	triples, err := nt.ParseString(string(x))
	if err != nil {
		t.Fatalf("insert batch is not N-Triples: %v", err)
	}
	if len(triples) != 20*TriplesPerBlogger {
		t.Errorf("batch has %d triples, want %d", len(triples), 20*TriplesPerBlogger)
	}
}

package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Latencies collects one operation kind's samples.
type Latencies []time.Duration

// Percentile returns the nearest-rank q-quantile (0 < q <= 1): the
// smallest sample with at least q of all samples at or below it. It
// never interpolates, so the value reported is one that was observed.
func (l Latencies) Percentile(q float64) time.Duration {
	if len(l) == 0 {
		return 0
	}
	s := append(Latencies(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// Round is one measured stretch of operations: its median and 90th
// percentile latency and its rate in units (operations or triples) per
// second. A metric over several rounds is the median of the rounds'
// figures, so that a burst of host noise that slows one round does not
// move it.
type Round struct {
	P50, P90 time.Duration
	PerSec   float64
}

func roundOf(l Latencies, units int, span time.Duration) Round {
	return Round{P50: l.Percentile(0.5), P90: l.Percentile(0.9), PerSec: Ratio(float64(units), span.Seconds())}
}

// medianRound returns the median over rounds of each figure, latencies
// in milliseconds.
func medianRound(rs []Round) (p50, p90, perSec float64) {
	var a, b, c []float64
	for _, r := range rs {
		a = append(a, Ms(r.P50))
		b = append(b, Ms(r.P90))
		c = append(c, r.PerSec)
	}
	return median(a), median(b), median(c)
}

// Sample is one timed operation: when it completed, counted from the
// start of its phase, and how long it took.
type Sample struct {
	End, Lat time.Duration
}

// windows splits a phase of length span into n equal windows by
// completion time and returns each window as a round of operations.
func windows(samples []Sample, span time.Duration, n int) []Round {
	lats := make([]Latencies, n)
	for _, s := range samples {
		i := min(int(int64(s.End)*int64(n)/int64(span)), n-1)
		lats[i] = append(lats[i], s.Lat)
	}
	out := make([]Round, n)
	for i, l := range lats {
		out[i] = roundOf(l, len(l), span/time.Duration(n))
	}
	return out
}

// sortedMs returns the samples in ascending order as milliseconds
// rounded to 0.01, for the report.
func (l Latencies) sortedMs() []float64 {
	out := make([]float64, len(l))
	for i, d := range l {
		out[i] = math.Round(Ms(d)*100) / 100
	}
	sort.Float64s(out)
	return out
}

// Ms converts a duration to fractional milliseconds.
func Ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// median of a float slice (mean of the middle pair for even lengths).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// volatileFields matches the response fields that legitimately differ
// between two answers of the same cube: which strategy produced it and
// how long it took. Everything else must be byte-identical.
var volatileFields = regexp.MustCompile(`"strategy":"[a-z-]*",?|"elapsed_ns":[0-9]+,?`)

// StripVolatile removes the strategy and elapsed_ns fields from a
// /query response body.
func StripVolatile(body []byte) []byte {
	return volatileFields.ReplaceAll(body, nil)
}

// SameAnswer reports whether two /query response bodies carry the same
// cube, byte for byte once the volatile fields are stripped.
func SameAnswer(a, b []byte) bool {
	return bytes.Equal(StripVolatile(a), StripVolatile(b))
}

// Prom is one scrape of a Prometheus text exposition: series (name plus
// its label set, exactly as exposed) to value.
type Prom map[string]float64

// ParseProm parses the text exposition format; comment lines and
// malformed lines are skipped.
func ParseProm(r io.Reader) (Prom, error) {
	p := Prom{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		p[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading exposition: %w", err)
	}
	return p, nil
}

// Delta returns after − before for one series (absent series read 0).
func Delta(before, after Prom, series string) float64 {
	return after[series] - before[series]
}

// Ratio is num/den, or 0 when den is 0.
func Ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// strategyOf extracts the "strategy" field from the head of a /query
// response body without decoding the (possibly large) rest of it.
func strategyOf(body []byte) string {
	const key = `"strategy":"`
	i := bytes.Index(body[:min(len(body), 64)], []byte(key))
	if i < 0 {
		return "unknown"
	}
	rest := body[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return "unknown"
	}
	return string(rest[:j])
}

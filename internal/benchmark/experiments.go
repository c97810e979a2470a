package benchmark

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"time"

	"rdfcube/internal/algebra"
	"rdfcube/internal/core"
	"rdfcube/internal/datagen"
	"rdfcube/internal/rdf"
	"rdfcube/internal/store"
	"rdfcube/internal/viewreg"
)

// Row is one measured experiment data point.
type Row struct {
	// Label identifies the swept parameter value (e.g. "N=100000").
	Label string
	// Triples is the AnS instance size.
	Triples int
	// Direct and Rewrite are the evaluation times of Q_T from the
	// instance and from the materialized results, respectively.
	Direct, Rewrite time.Duration
	// Cells is the transformed cube's size; Match reports whether the
	// two strategies produced identical cubes.
	Cells int
	Match bool
	// Extra carries experiment-specific columns (error rates, sizes).
	Extra string
}

// printHeader and printRow render the paper-style result table.
func printHeader(w io.Writer, title string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	fmt.Fprintf(w, "%-22s %10s %12s %12s %8s %7s  %s\n",
		"parameter", "triples", "direct", "rewrite", "speedup", "cells", "notes")
}

func printRow(w io.Writer, r Row) {
	match := ""
	if !r.Match {
		match = "MISMATCH! "
	}
	fmt.Fprintf(w, "%-22s %10d %12s %12s %8s %7d  %s%s\n",
		r.Label, r.Triples, r.Direct.Round(time.Microsecond), r.Rewrite.Round(time.Microsecond),
		Speedup(r.Direct, r.Rewrite), r.Cells, match, r.Extra)
}

// SliceSizes is the default instance-size sweep of experiment E1
// (bloggers; each blogger yields ~10 instance triples).
var SliceSizes = []int{1000, 5000, 20000, 50000}

// RunE1Slice measures SLICE: direct evaluation versus σ over ans(Q),
// sweeping dataset scale.
func RunE1Slice(w io.Writer, bloggers []int) ([]Row, error) {
	printHeader(w, "E1  SLICE: direct vs σ-rewrite over ans(Q), scale sweep")
	var rows []Row
	for _, n := range bloggers {
		cfg := datagen.DefaultBloggerConfig()
		cfg.Bloggers = n
		wl, err := BuildBlogger(cfg, "count")
		if err != nil {
			return rows, err
		}
		// Slice dimension 0 (age) to one mid-domain value.
		sliced, err := core.Slice(wl.Query, "d0", datagen.DimValue(0, 10))
		if err != nil {
			return rows, err
		}
		row, err := measureDice(wl, sliced, fmt.Sprintf("bloggers=%d", n))
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
		printRow(w, row)
	}
	return rows, nil
}

// Selectivities is the default E2 sweep: fraction of the age domain
// retained by the dice.
var Selectivities = []float64{0.01, 0.10, 0.25, 0.50, 1.0}

// RunE2Dice measures DICE at fixed scale, sweeping selectivity.
func RunE2Dice(w io.Writer, bloggers int, selectivities []float64) ([]Row, error) {
	printHeader(w, "E2  DICE: direct vs σ-rewrite over ans(Q), selectivity sweep")
	cfg := datagen.DefaultBloggerConfig()
	cfg.Bloggers = bloggers
	wl, err := BuildBlogger(cfg, "count")
	if err != nil {
		return nil, err
	}
	var rows []Row
	for _, sel := range selectivities {
		card := datagen.DimCardinality(0)
		k := int(math.Max(1, math.Round(sel*float64(card))))
		vals := make([]rdf.Term, 0, k)
		for v := 0; v < k; v++ {
			vals = append(vals, datagen.DimValue(0, v))
		}
		diced, err := core.Dice(wl.Query, map[string][]rdf.Term{"d0": vals})
		if err != nil {
			return rows, err
		}
		row, err := measureDice(wl, diced, fmt.Sprintf("selectivity=%.0f%%", sel*100))
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
		printRow(w, row)
	}
	return rows, nil
}

// measureDice times direct evaluation of a sliced/diced query against the
// σ rewrite over the materialized ans(Q) and checks they agree.
func measureDice(wl *Workload, diced *core.Query, label string) (Row, error) {
	var direct, rewrite *algebra.Relation
	dDur, err := Timed(func() (err error) {
		direct, err = wl.Ev.Answer(diced)
		return err
	})
	if err != nil {
		return Row{}, err
	}
	rDur, err := Timed(func() (err error) {
		rewrite, err = wl.Ev.DiceRewrite(diced, wl.Ans)
		return err
	})
	if err != nil {
		return Row{}, err
	}
	return Row{
		Label:   label,
		Triples: wl.Inst.Len(),
		Direct:  dDur,
		Rewrite: rDur,
		Cells:   rewrite.Len(),
		Match:   algebra.Equal(direct, rewrite),
	}, nil
}

// DimSweep is the default E3 dimensionality sweep.
var DimSweep = []int{2, 3, 4, 5, 6}

// RunE3DrillOut measures DRILL-OUT (drop the last dimension): direct
// versus Algorithm 1 over pres(Q), sweeping classifier dimensionality.
func RunE3DrillOut(w io.Writer, bloggers int, dims []int) ([]Row, error) {
	printHeader(w, "E3  DRILL-OUT: direct vs Algorithm 1 over pres(Q), dimensionality sweep")
	var rows []Row
	for _, nd := range dims {
		cfg := datagen.DefaultBloggerConfig()
		cfg.Bloggers = bloggers
		cfg.Dimensions = nd
		wl, err := BuildBlogger(cfg, "sum")
		if err != nil {
			return rows, err
		}
		drop := fmt.Sprintf("d%d", nd-1)
		qOut, err := core.DrillOut(wl.Query, drop)
		if err != nil {
			return rows, err
		}
		var direct, rewrite *algebra.Relation
		dDur, err := Timed(func() (err error) {
			direct, err = wl.Ev.Answer(qOut)
			return err
		})
		if err != nil {
			return rows, err
		}
		rDur, err := Timed(func() (err error) {
			rewrite, err = wl.Ev.DrillOutRewrite(wl.Query, wl.Pres, drop)
			return err
		})
		if err != nil {
			return rows, err
		}
		row := Row{
			Label:   fmt.Sprintf("dims=%d", nd),
			Triples: wl.Inst.Len(),
			Direct:  dDur,
			Rewrite: rDur,
			Cells:   rewrite.Len(),
			Match:   algebra.Equal(direct, rewrite),
			Extra:   fmt.Sprintf("pres=%d rows", wl.Pres.Len()),
		}
		rows = append(rows, row)
		printRow(w, row)
	}
	return rows, nil
}

// RunE4DrillIn measures DRILL-IN: direct versus Algorithm 2 (pres(Q)
// joined with the auxiliary query), sweeping dataset scale.
func RunE4DrillIn(w io.Writer, videos []int) ([]Row, error) {
	printHeader(w, "E4  DRILL-IN: direct vs Algorithm 2 over pres(Q)+q_aux, scale sweep")
	var rows []Row
	for _, n := range videos {
		cfg := datagen.DefaultVideoConfig()
		cfg.Videos = n
		cfg.Websites = n/10 + 1
		wl, err := BuildVideo(cfg, "sum")
		if err != nil {
			return rows, err
		}
		qIn, err := core.DrillIn(wl.Query, "d3")
		if err != nil {
			return rows, err
		}
		var direct, rewrite *algebra.Relation
		dDur, err := Timed(func() (err error) {
			direct, err = wl.Ev.Answer(qIn)
			return err
		})
		if err != nil {
			return rows, err
		}
		rDur, err := Timed(func() (err error) {
			rewrite, err = wl.Ev.DrillInRewrite(wl.Query, wl.Pres, "d3")
			return err
		})
		if err != nil {
			return rows, err
		}
		row := Row{
			Label:   fmt.Sprintf("videos=%d", n),
			Triples: wl.Inst.Len(),
			Direct:  dDur,
			Rewrite: rDur,
			Cells:   rewrite.Len(),
			Match:   algebra.Equal(direct, rewrite),
		}
		rows = append(rows, row)
		printRow(w, row)
	}
	return rows, nil
}

// RunE5Summary measures all four operations at one fixed scale — the
// headline comparison table.
func RunE5Summary(w io.Writer, bloggers int) ([]Row, error) {
	printHeader(w, "E5  All operations at fixed scale: direct vs rewrite")
	cfg := datagen.DefaultBloggerConfig()
	cfg.Bloggers = bloggers
	cfg.Dimensions = 3
	wl, err := BuildBlogger(cfg, "sum")
	if err != nil {
		return nil, err
	}
	var rows []Row

	sliced, err := core.Slice(wl.Query, "d0", datagen.DimValue(0, 10))
	if err != nil {
		return rows, err
	}
	row, err := measureDice(wl, sliced, "SLICE d0")
	if err != nil {
		return rows, err
	}
	rows = append(rows, row)
	printRow(w, row)

	diced, err := core.Dice(wl.Query, map[string][]rdf.Term{
		"d0": {datagen.DimValue(0, 1), datagen.DimValue(0, 2), datagen.DimValue(0, 3)},
		"d1": {datagen.DimValue(1, 0), datagen.DimValue(1, 1)},
	})
	if err != nil {
		return rows, err
	}
	row, err = measureDice(wl, diced, "DICE d0,d1")
	if err != nil {
		return rows, err
	}
	rows = append(rows, row)
	printRow(w, row)

	qOut, err := core.DrillOut(wl.Query, "d2")
	if err != nil {
		return rows, err
	}
	var direct, rewrite *algebra.Relation
	dDur, err := Timed(func() (err error) {
		direct, err = wl.Ev.Answer(qOut)
		return err
	})
	if err != nil {
		return rows, err
	}
	rDur, err := Timed(func() (err error) {
		rewrite, err = wl.Ev.DrillOutRewrite(wl.Query, wl.Pres, "d2")
		return err
	})
	if err != nil {
		return rows, err
	}
	row = Row{Label: "DRILL-OUT d2", Triples: wl.Inst.Len(), Direct: dDur, Rewrite: rDur,
		Cells: rewrite.Len(), Match: algebra.Equal(direct, rewrite)}
	rows = append(rows, row)
	printRow(w, row)

	// DRILL-IN on the video workload at comparable scale.
	vcfg := datagen.DefaultVideoConfig()
	vcfg.Videos = bloggers
	vcfg.Websites = bloggers/10 + 1
	vwl, err := BuildVideo(vcfg, "sum")
	if err != nil {
		return rows, err
	}
	qIn, err := core.DrillIn(vwl.Query, "d3")
	if err != nil {
		return rows, err
	}
	dDur, err = Timed(func() (err error) {
		direct, err = vwl.Ev.Answer(qIn)
		return err
	})
	if err != nil {
		return rows, err
	}
	rDur, err = Timed(func() (err error) {
		rewrite, err = vwl.Ev.DrillInRewrite(vwl.Query, vwl.Pres, "d3")
		return err
	})
	if err != nil {
		return rows, err
	}
	row = Row{Label: "DRILL-IN d3 (video)", Triples: vwl.Inst.Len(), Direct: dDur, Rewrite: rDur,
		Cells: rewrite.Len(), Match: algebra.Equal(direct, rewrite)}
	rows = append(rows, row)
	printRow(w, row)
	return rows, nil
}

// MultiValueSweep is the default E6 multi-valuedness sweep.
var MultiValueSweep = []float64{0, 0.1, 0.25, 0.5}

// RunE6NaiveError quantifies the correctness ablation of Example 5: the
// naive ans(Q)-based drill-out versus Algorithm 1, as multi-valuedness
// grows. The error metric is the fraction of cube cells whose naive
// aggregate differs from the correct one.
func RunE6NaiveError(w io.Writer, bloggers int, multiValue []float64) ([]Row, error) {
	printHeader(w, "E6  Naive ans(Q)-based DRILL-OUT error vs Algorithm 1, multi-valuedness sweep")
	var rows []Row
	for _, mv := range multiValue {
		cfg := datagen.DefaultBloggerConfig()
		cfg.Bloggers = bloggers
		cfg.Dimensions = 2
		cfg.MultiValueProb = mv
		wl, err := BuildBlogger(cfg, "sum")
		if err != nil {
			return rows, err
		}
		correct, err := wl.Ev.DrillOutRewrite(wl.Query, wl.Pres, "d1")
		if err != nil {
			return rows, err
		}
		var naive *algebra.Relation
		nDur, err := Timed(func() (err error) {
			naive, err = core.NaiveDrillOutFromAns(wl.Query, wl.Ans, "d1")
			return err
		})
		if err != nil {
			return rows, err
		}
		aDur, err := Timed(func() (err error) {
			_, err = wl.Ev.DrillOutRewrite(wl.Query, wl.Pres, "d1")
			return err
		})
		if err != nil {
			return rows, err
		}
		wrong, total, meanRelErr := cellErrors(correct, naive)
		// Match stays true: the naive baseline *diverging* under
		// multi-valuedness is the expected outcome, reported in Extra.
		row := Row{
			Label:   fmt.Sprintf("multivalue=%.0f%%", mv*100),
			Triples: wl.Inst.Len(),
			Direct:  nDur, // "direct" column shows the (cheaper, wrong) naive time
			Rewrite: aDur,
			Cells:   total,
			Match:   true,
			Extra: fmt.Sprintf("naive wrong cells %d/%d (%.1f%%), mean overcount %.1f%%",
				wrong, total, 100*float64(wrong)/float64(maxI(total, 1)), 100*meanRelErr),
		}
		rows = append(rows, row)
		printRow(w, row)
	}
	return rows, nil
}

// cellErrors compares two cubes cell by cell (keyed on dimensions) and
// returns the number of differing cells, the total, and the mean
// relative deviation of the naive value from the correct one.
func cellErrors(correct, naive *algebra.Relation) (wrong, total int, meanRelErr float64) {
	naiveVals := cubeValues(naive)
	var sumRel float64
	for k, want := range cubeValues(correct) {
		total++
		nv, ok := naiveVals[k]
		if !ok || math.Abs(nv-want) > 1e-9 {
			wrong++
		}
		if ok && want != 0 {
			sumRel += math.Abs(nv-want) / math.Abs(want)
		}
	}
	if total > 0 {
		meanRelErr = sumRel / float64(total)
	}
	return wrong, total, meanRelErr
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// RunE7Materialize measures materialization cost and size: pres(Q)
// versus ans(Q) versus the instance, across scale.
func RunE7Materialize(w io.Writer, bloggers []int) ([]Row, error) {
	printHeader(w, "E7  Materialization cost: pres(Q) vs ans(Q)")
	var rows []Row
	for _, n := range bloggers {
		cfg := datagen.DefaultBloggerConfig()
		cfg.Bloggers = n
		wl, err := BuildBlogger(cfg, "sum")
		if err != nil {
			return rows, err
		}
		row := Row{
			Label:   fmt.Sprintf("bloggers=%d", n),
			Triples: wl.Inst.Len(),
			Direct:  wl.PresBuild,
			Rewrite: wl.AnsBuild,
			Cells:   wl.Ans.Len(),
			Match:   true,
			Extra:   fmt.Sprintf("pres=%d rows, ans=%d cells", wl.Pres.Len(), wl.Ans.Len()),
		}
		rows = append(rows, row)
		printRow(w, row)
	}
	fmt.Fprintln(w, "   (direct column = pres(Q) build time; rewrite column = ans(Q) aggregation time)")
	return rows, nil
}

// AggNames is the default E8 aggregation-function sweep.
var AggNames = []string{"count", "sum", "min", "max", "avg"}

// RunE8Aggregations measures DRILL-OUT across aggregation functions,
// contrasting distributive and non-distributive ⊕ (the naive baseline is
// undefined for avg).
func RunE8Aggregations(w io.Writer, bloggers int, aggs []string) ([]Row, error) {
	printHeader(w, "E8  DRILL-OUT by aggregation function (Algorithm 1)")
	var rows []Row
	for _, name := range aggs {
		cfg := datagen.DefaultBloggerConfig()
		cfg.Bloggers = bloggers
		wl, err := BuildBlogger(cfg, name)
		if err != nil {
			return rows, err
		}
		qOut, err := core.DrillOut(wl.Query, "d1")
		if err != nil {
			return rows, err
		}
		var direct, rewrite *algebra.Relation
		dDur, err := Timed(func() (err error) {
			direct, err = wl.Ev.Answer(qOut)
			return err
		})
		if err != nil {
			return rows, err
		}
		rDur, err := Timed(func() (err error) {
			rewrite, err = wl.Ev.DrillOutRewrite(wl.Query, wl.Pres, "d1")
			return err
		})
		if err != nil {
			return rows, err
		}
		extra := "distributive"
		if !wl.Query.Agg.Distributive() {
			extra = "non-distributive (naive rewrite undefined)"
		}
		row := Row{
			Label:   "agg=" + name,
			Triples: wl.Inst.Len(),
			Direct:  dDur,
			Rewrite: rDur,
			Cells:   rewrite.Len(),
			Match:   cubesEqualApprox(direct, rewrite),
			Extra:   extra,
		}
		rows = append(rows, row)
		printRow(w, row)
	}
	return rows, nil
}

// cubesEqualApprox compares cubes with a small numeric tolerance (avg
// accumulates floating-point differences between evaluation orders).
func cubesEqualApprox(a, b *algebra.Relation) bool {
	if a.Len() != b.Len() {
		return false
	}
	vals := cubeValues(a)
	for k, got := range cubeValues(b) {
		want, ok := vals[k]
		if !ok || math.Abs(want-got) > 1e-6*math.Max(1, math.Abs(want)) {
			return false
		}
	}
	return true
}

// cubeValues maps each cell of a cube (dims..., v) to its value, keyed
// on the dimension IDs.
func cubeValues(cube *algebra.Relation) map[string]float64 {
	last := len(cube.Cols) - 1
	vals := make(map[string]float64, cube.Len())
	for i := 0; i < cube.Len(); i++ {
		k := ""
		for j := 0; j < last; j++ {
			k += fmt.Sprintf("%d|", cube.Cell(i, j).ID)
		}
		vals[k] = cube.Cell(i, last).Num
	}
	return vals
}

// WriteMixes is the default E9 write-fraction sweep: 10% and 50% of the
// operations are insert batches.
var WriteMixes = []float64{0.1, 0.5}

// InsertBloggerFacts writes n new instance-vocabulary blogger facts
// (IDs startID..startID+n-1) into st: a :Blogger with both dimension
// values, one post and its word count — the write workload of E9 and
// BenchmarkInsertQueryMix. Values are derived deterministically from the
// fact ID so identical ID sequences produce identical instances.
func InsertBloggerFacts(st *store.Store, startID, n int) {
	res := func(local string) rdf.Term { return rdf.NewIRI(datagen.NS + local) }
	for i := 0; i < n; i++ {
		id := startID + i
		u := res(fmt.Sprintf("wuser%d", id))
		post := res(fmt.Sprintf("wpost%d", id))
		st.Add(rdf.Triple{S: u, P: rdf.Type, O: res("Blogger")})
		st.Add(rdf.Triple{S: u, P: res("hasAge"), O: datagen.DimValue(0, id%datagen.DimCardinality(0))})
		st.Add(rdf.Triple{S: u, P: res("livesIn"), O: datagen.DimValue(1, id%datagen.DimCardinality(1))})
		st.Add(rdf.Triple{S: u, P: res("wrotePost"), O: post})
		st.Add(rdf.Triple{S: post, P: res("hasWordCount"), O: rdf.NewInt(int64(100 + id%500))})
	}
}

// RunE9WriteMix measures the insert/query mix the delta layer exists
// for: the same deterministic operation stream — insert batches
// interleaved with cube queries — is run twice over identical instances.
// The "rewrite" path answers through a shared view registry whose
// registered views are *maintained* across the writes (the store's delta
// feed applied to pres(Q)); the "direct" path recomputes every answer
// from the instance, the cost model the paper's Definition 4 economy
// replaces. The final maintained cube is checked against a from-scratch
// direct evaluation of the same instance.
func RunE9WriteMix(w io.Writer, bloggers, ops int, writeFracs []float64) ([]Row, error) {
	printHeader(w, "E9  Insert/query mix: maintained views vs per-query recomputation")
	var rows []Row
	for _, frac := range writeFracs {
		cfg := datagen.DefaultBloggerConfig()
		cfg.Bloggers = bloggers
		cfg.Dimensions = 2
		wlM, err := BuildBlogger(cfg, "sum") // maintained-views pipeline
		if err != nil {
			return rows, err
		}
		wlR, err := BuildBlogger(cfg, "sum") // recompute pipeline
		if err != nil {
			return rows, err
		}
		reg := viewreg.New(wlM.Inst, viewreg.Config{})
		if _, _, err := reg.Answer(wlM.Query); err != nil {
			return rows, err
		}

		every := int(math.Max(1, math.Round(1/frac)))
		const factsPerWrite = 2
		mDur, err := Timed(func() error {
			for op := 0; op < ops; op++ {
				if op%every == 0 {
					InsertBloggerFacts(wlM.Inst, op*factsPerWrite, factsPerWrite)
					reg.NotifyWrite()
					continue
				}
				if _, _, err := reg.Answer(wlM.Query); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return rows, err
		}
		rDur, err := Timed(func() error {
			for op := 0; op < ops; op++ {
				if op%every == 0 {
					InsertBloggerFacts(wlR.Inst, op*factsPerWrite, factsPerWrite)
					continue
				}
				if _, err := wlR.Ev.Answer(wlR.Query); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return rows, err
		}

		cube, _, err := reg.Answer(wlM.Query)
		if err != nil {
			return rows, err
		}
		direct, err := wlM.Ev.Answer(wlM.Query)
		if err != nil {
			return rows, err
		}
		stats := reg.Stats()
		row := Row{
			Label:   fmt.Sprintf("writes=%.0f%%", frac*100),
			Triples: wlM.Inst.Len(),
			Direct:  rDur,
			Rewrite: mDur,
			Cells:   cube.Len(),
			Match:   algebra.Equal(direct, cube.Project(direct.Cols...)),
			Extra: fmt.Sprintf("%d ops, maintained=%d direct-evals=%d delta=%d",
				ops, stats.Maintained, stats.ByStrategy[viewreg.StrategyDirect], wlM.Inst.DeltaLen()),
		}
		rows = append(rows, row)
		printRow(w, row)
	}
	fmt.Fprintln(w, "   (direct column = recompute-per-query stream; rewrite column = maintained-view stream, same ops)")
	return rows, nil
}

// ColdStartSizes is the default E10 sweep (bloggers).
var ColdStartSizes = []int{5000, 20000}

// RunE10ColdStart measures restart cost — the economy internal/persist
// exists for. Two comparisons per scale:
//
//   - "load": deserializing the AnS instance from the v1 flat snapshot
//     (re-insert every triple into the nested maps, then re-Freeze: three
//     sorts) versus the v2 frozen snapshot (one sequential pass straight
//     into the columnar arrays);
//   - "warm": the first analytical answer after restart, recomputed
//     directly (cold registry) versus restored from a view-registry
//     snapshot (Restore + cached lookup, no evaluation).
//
// Both comparisons verify byte-level agreement of the answers produced
// by the two paths.
func RunE10ColdStart(w io.Writer, bloggers []int) ([]Row, error) {
	printHeader(w, "E10 Cold start: v1 load+Freeze vs v2 frozen load; cold vs warmed first answer")
	var rows []Row
	for _, n := range bloggers {
		cfg := datagen.DefaultBloggerConfig()
		cfg.Bloggers = n
		cfg.Dimensions = 2
		wl, err := BuildBlogger(cfg, "sum")
		if err != nil {
			return rows, err
		}
		var v1Buf, v2Buf bytes.Buffer
		if err := wl.Inst.WriteSnapshot(&v1Buf); err != nil {
			return rows, err
		}
		if err := wl.Inst.WriteFrozenSnapshot(&v2Buf); err != nil {
			return rows, err
		}

		var st1, st2 *store.Store
		t1, err := Timed(func() (err error) {
			st1, err = store.ReadSnapshotFrozen(bytes.NewReader(v1Buf.Bytes()))
			return err
		})
		if err != nil {
			return rows, err
		}
		t2, err := Timed(func() (err error) {
			st2, err = store.OpenFrozenSnapshot(bytes.NewReader(v2Buf.Bytes()))
			return err
		})
		if err != nil {
			return rows, err
		}
		a1, err := core.NewEvaluator(st1).Answer(wl.Query)
		if err != nil {
			return rows, err
		}
		a2, err := core.NewEvaluator(st2).Answer(wl.Query)
		if err != nil {
			return rows, err
		}
		row := Row{
			Label:   fmt.Sprintf("load bloggers=%d", n),
			Triples: wl.Inst.Len(),
			Direct:  t1,
			Rewrite: t2,
			Cells:   a2.Len(),
			Match:   algebra.Equal(a1, a2),
			Extra:   fmt.Sprintf("v1=%dKB v2=%dKB", v1Buf.Len()/1024, v2Buf.Len()/1024),
		}
		rows = append(rows, row)
		printRow(w, row)

		// Warm start: register + save the view, then compare the first
		// post-restart answer cold (direct evaluation) vs warmed
		// (Restore + cached lookup).
		reg := viewreg.New(wl.Inst, viewreg.Config{})
		if _, _, err := reg.Answer(wl.Query); err != nil {
			return rows, err
		}
		var views bytes.Buffer
		if _, err := reg.Save(&views); err != nil {
			return rows, err
		}
		var cold, warm *algebra.Relation
		tCold, err := Timed(func() (err error) {
			cold, err = core.NewEvaluator(st2).Answer(wl.Query)
			return err
		})
		if err != nil {
			return rows, err
		}
		var restored int
		tWarm, err := Timed(func() error {
			reg2 := viewreg.New(st2, viewreg.Config{})
			var err error
			if restored, err = reg2.Restore(bytes.NewReader(views.Bytes())); err != nil {
				return err
			}
			warm, _, err = reg2.Answer(wl.Query)
			return err
		})
		if err != nil {
			return rows, err
		}
		row = Row{
			Label:   fmt.Sprintf("warm bloggers=%d", n),
			Triples: wl.Inst.Len(),
			Direct:  tCold,
			Rewrite: tWarm,
			Cells:   warm.Len(),
			Match:   restored == 1 && algebra.Equal(cold, warm.Project(cold.Cols...)),
			Extra:   fmt.Sprintf("views=%dKB", views.Len()/1024),
		}
		rows = append(rows, row)
		printRow(w, row)
	}
	fmt.Fprintln(w, "   (direct column = v1 load+Freeze / cold first answer; rewrite column = v2 frozen load / warmed first answer)")
	return rows, nil
}

// ExperimentOrder lists the experiment names in presentation order.
var ExperimentOrder = []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13"}

// Experiments maps each experiment name to a runner applying the
// default parameters at the given scale multiplier — the single place
// the e1-e8 sweep parameters are wired, shared by RunAll and
// cmd/benchrunner.
var Experiments = map[string]func(w io.Writer, scale int) ([]Row, error){
	"e1": func(w io.Writer, s int) ([]Row, error) { return RunE1Slice(w, scaledSizes(s)) },
	"e2": func(w io.Writer, s int) ([]Row, error) { return RunE2Dice(w, 10000*s, Selectivities) },
	"e3": func(w io.Writer, s int) ([]Row, error) { return RunE3DrillOut(w, 5000*s, DimSweep) },
	"e4": func(w io.Writer, s int) ([]Row, error) { return RunE4DrillIn(w, scaledSizes(s)) },
	"e5": func(w io.Writer, s int) ([]Row, error) { return RunE5Summary(w, 10000*s) },
	"e6": func(w io.Writer, s int) ([]Row, error) { return RunE6NaiveError(w, 5000*s, MultiValueSweep) },
	"e7": func(w io.Writer, s int) ([]Row, error) { return RunE7Materialize(w, scaledSizes(s)) },
	"e8": func(w io.Writer, s int) ([]Row, error) { return RunE8Aggregations(w, 5000*s, AggNames) },
	"e9": func(w io.Writer, s int) ([]Row, error) { return RunE9WriteMix(w, 5000*s, 60, WriteMixes) },
	"e10": func(w io.Writer, s int) ([]Row, error) {
		sizes := make([]int, len(ColdStartSizes))
		for i, n := range ColdStartSizes {
			sizes[i] = n * s
		}
		return RunE10ColdStart(w, sizes)
	},
	"e11": func(w io.Writer, s int) ([]Row, error) { return RunE11StarJoin(w, 60000*s, StarKs) },
	"e12": func(w io.Writer, s int) ([]Row, error) { return RunE12Batch(w, 8000*s, 40000*s, WideStarKs) },
	"e13": func(w io.Writer, s int) ([]Row, error) { return RunE13BiggerThanRAM(w, E13Bloggers*s) },
}

func scaledSizes(scale int) []int {
	out := make([]int, len(SliceSizes))
	for i, s := range SliceSizes {
		out[i] = s * scale
	}
	return out
}

// ClampScale normalizes a scale multiplier (anything below 1 means 1).
func ClampScale(scale int) int {
	if scale < 1 {
		return 1
	}
	return scale
}

// RunAll executes every experiment with default parameters, writing the
// tables to w. scale tunes the base sizes (1 = quick, larger = closer to
// the tech report's scales).
func RunAll(w io.Writer, scale int) error {
	scale = ClampScale(scale)
	for _, name := range ExperimentOrder {
		if _, err := Experiments[name](w, scale); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

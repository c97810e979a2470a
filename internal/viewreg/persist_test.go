package viewreg

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"testing"

	"rdfcube/internal/agg"
	"rdfcube/internal/algebra"
	"rdfcube/internal/core"
	"rdfcube/internal/persist"
	"rdfcube/internal/rdf"
	"rdfcube/internal/store"
)

// snapshotReload roundtrips st through the frozen v2 snapshot, giving
// the "recovered store" of a warm-start scenario: identical contents and
// dictionary ID assignment, fresh memory.
func snapshotReload(t *testing.T, st *store.Store) *store.Store {
	t.Helper()
	var buf bytes.Buffer
	if err := st.WriteFrozenSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := store.OpenFrozenSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestSaveRestoreWarmStart(t *testing.T) {
	inst := instance(7, 300)
	reg := New(inst, Config{})
	q := query(t, agg.Sum)

	want, strat, err := reg.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if strat != StrategyDirect {
		t.Fatalf("first answer strategy %s, want direct", strat)
	}

	var views bytes.Buffer
	if _, err := reg.Save(&views); err != nil {
		t.Fatal(err)
	}

	// "Restart": recover the store from its snapshot and warm a fresh
	// registry from the view snapshot.
	recovered := snapshotReload(t, inst)
	reg2 := New(recovered, Config{})
	n, err := reg2.Restore(bytes.NewReader(views.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("restored %d views, want 1", n)
	}

	got, strat, err := reg2.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if strat != StrategyCached {
		t.Fatalf("warmed answer strategy %s, want cached (no direct re-evaluation)", strat)
	}
	if reg2.Stats().ByStrategy[StrategyDirect] != 0 {
		t.Fatal("warm start performed a direct evaluation")
	}
	if !algebra.Equal(want, got) {
		t.Fatal("warmed cube differs from pre-restart cube")
	}

	// Rewrites over the warmed view must work too (drill-out from pres).
	qOut, err := core.DrillOut(q, "d1")
	if err != nil {
		t.Fatal(err)
	}
	cube, strat, err := reg2.Answer(qOut)
	if err != nil {
		t.Fatal(err)
	}
	if strat != StrategyDrillOut {
		t.Fatalf("drill-out strategy %s, want drillout-rewrite", strat)
	}
	checkAgainstDirect(t, reg2, qOut, cube, "warmed drill-out")
}

func TestRestoreSyncsBehindViews(t *testing.T) {
	inst := instance(11, 200)
	reg := New(inst, Config{})
	q := query(t, agg.Count)
	if _, _, err := reg.Answer(q); err != nil {
		t.Fatal(err)
	}

	// Snapshot the *store* first, then the views, then write more facts:
	// the recovered store replays the writes (WAL analog below is a
	// direct re-apply), leaving the saved views behind on the delta
	// sequence — Restore must Sync them through the feed.
	var storeSnap bytes.Buffer
	if err := inst.WriteFrozenSnapshot(&storeSnap); err != nil {
		t.Fatal(err)
	}
	var views bytes.Buffer
	if _, err := reg.Save(&views); err != nil {
		t.Fatal(err)
	}
	late := []rdf.Triple{
		rdf.NewTriple(iri("factL0"), rdf.Type, iri("Fact")),
		rdf.NewTriple(iri("factL0"), iri("dim0"), rdf.NewInt(1)),
		rdf.NewTriple(iri("factL0"), iri("at"), iri("hub1")),
		rdf.NewTriple(iri("factL0"), iri("score"), rdf.NewInt(5)),
	}
	for _, tr := range late {
		inst.Add(tr)
	}

	recovered, err := store.OpenFrozenSnapshot(bytes.NewReader(storeSnap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range late { // the WAL-replay analog
		recovered.Add(tr)
	}
	if recovered.Version() != inst.Version() {
		t.Fatalf("recovered version %+v, want %+v", recovered.Version(), inst.Version())
	}

	reg2 := New(recovered, Config{})
	n, err := reg2.Restore(bytes.NewReader(views.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("restored %d views, want 1", n)
	}
	got, strat, err := reg2.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if strat != StrategyCached {
		t.Fatalf("strategy %s, want cached", strat)
	}
	checkAgainstDirect(t, reg2, q, got, "synced warm view")
}

func TestRestoreRejectsMismatchedStore(t *testing.T) {
	inst := instance(3, 100)
	reg := New(inst, Config{})
	q := query(t, agg.Sum)
	if _, _, err := reg.Answer(q); err != nil {
		t.Fatal(err)
	}
	var views bytes.Buffer
	if _, err := reg.Save(&views); err != nil {
		t.Fatal(err)
	}

	// A store at a different base epoch must warm nothing.
	other := instance(3, 100)
	other.Add(rdf.NewTriple(iri("zap"), rdf.Type, iri("Fact")))
	other.Freeze() // compaction moves the base epoch
	regOther := New(other, Config{})
	if n, err := regOther.Restore(bytes.NewReader(views.Bytes())); err != nil || n != 0 {
		t.Fatalf("mismatched store restored %d views (err %v), want 0", n, err)
	}

	// Corrupt view files fail closed.
	raw := views.Bytes()
	for _, cut := range []int{0, 3, 10, len(raw) / 2} {
		if _, err := New(inst, Config{}).Restore(bytes.NewReader(raw[:cut])); !errors.Is(err, persist.ErrCorrupt) {
			t.Fatalf("truncation at %d: err = %v, want ErrCorrupt", cut, err)
		}
	}
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)-5] ^= 0x20
	if _, err := New(inst, Config{}).Restore(bytes.NewReader(flipped)); !errors.Is(err, persist.ErrCorrupt) {
		t.Fatal("bit flip not detected")
	}
}

func TestSaveRestoreManyViews(t *testing.T) {
	inst := instance(5, 200)
	reg := New(inst, Config{})
	base := query(t, agg.Sum)
	if _, _, err := reg.Answer(base); err != nil {
		t.Fatal(err)
	}
	// Register distinct Σ variants (dice refinements answered directly
	// would be rewrites; use distinct measure aggs to force direct).
	for _, f := range []agg.Func{agg.Count, agg.Min, agg.Max} {
		q := query(t, f)
		if _, _, err := reg.Answer(q); err != nil {
			t.Fatal(err)
		}
	}
	if reg.Entries() != 4 {
		t.Fatalf("registered %d views, want 4", reg.Entries())
	}

	var views bytes.Buffer
	if _, err := reg.Save(&views); err != nil {
		t.Fatal(err)
	}
	recovered := snapshotReload(t, inst)
	reg2 := New(recovered, Config{})
	n, err := reg2.Restore(bytes.NewReader(views.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("restored %d views, want 4", n)
	}
	for _, f := range []agg.Func{agg.Sum, agg.Count, agg.Min, agg.Max} {
		q := query(t, f)
		cube, strat, err := reg2.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		if strat != StrategyCached {
			t.Fatalf("agg %s: strategy %s, want cached", f.Name(), strat)
		}
		checkAgainstDirect(t, reg2, q, cube, fmt.Sprintf("agg %s", f.Name()))
	}
}

// TestRestoreGoldenSnapshot loads testdata/views.snap, a view snapshot
// written by the row-based relation encoder that preceded the columnar
// relations: instance(5, 40) plus newFact(900, 1, 42), holding a
// maintained sum view and a plain avg view. Both must restore and
// answer equal to direct evaluation.
func TestRestoreGoldenSnapshot(t *testing.T) {
	raw, err := os.ReadFile("testdata/views.snap")
	if err != nil {
		t.Fatal(err)
	}
	st := instance(5, 40)
	newFact(st, 900, 1, 42)
	reg := New(st, Config{})
	n, err := reg.Restore(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("restored %d views, want 2", n)
	}
	for _, f := range []agg.Func{agg.Sum, agg.Avg} {
		q := query(t, f)
		got, strat, err := reg.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		if strat != StrategyCached {
			t.Fatalf("%s: strategy %s, want cached", f.Name(), strat)
		}
		checkAgainstDirect(t, reg, q, got, "golden "+f.Name())
	}
	if s := reg.Stats(); s.Maintained+s.LazyUpgrades > 0 || s.ByStrategy[StrategyDirect] > 0 {
		t.Fatalf("golden restore re-evaluated: %+v", s)
	}
}

// TestRelationEncodingGolden pins the on-disk relation encoding: one
// kind byte per cell, rows in order, as written before relations became
// columnar.
func TestRelationEncodingGolden(t *testing.T) {
	rel := algebra.NewRelation("x", "k", "v")
	rel.Append(algebra.Row{algebra.TermV(3), algebra.KeyV(1), algebra.NumV(2.5)})
	rel.Append(algebra.Row{algebra.TermV(300), algebra.KeyV(70000), algebra.NumV(-1)})
	want := []byte{
		0x03, 0x01, 0x78, 0x01, 0x6b, 0x01, 0x76, 0x02,
		0x01, 0x03, 0x03, 0x01, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x40,
		0x01, 0xac, 0x02, 0x03, 0xf0, 0xa2, 0x04, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0xbf,
	}
	var e persist.Enc
	encodeRelation(&e, rel)
	if !bytes.Equal(e.Bytes(), want) {
		t.Fatalf("encoding changed:\n got % x\nwant % x", e.Bytes(), want)
	}
	back, err := decodeRelation(persist.NewDec(want))
	if err != nil {
		t.Fatal(err)
	}
	if !algebra.Equal(back, rel) {
		t.Fatalf("decoded %v, want %v", back.Rows(), rel.Rows())
	}
	// A column holds one kind: a second-row number under a term column
	// is corrupt, not a mixed column.
	mixed := append([]byte(nil), want...)
	mixed[21] = byte(algebra.NumValue)
	if _, err := decodeRelation(persist.NewDec(mixed)); !errors.Is(err, persist.ErrCorrupt) {
		t.Fatalf("mixed-kind column decoded: err %v", err)
	}
}

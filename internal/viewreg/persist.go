package viewreg

// View-registry snapshots: the warm-start half of the durability story.
//
// Save serializes every registered view in one of two forms. A view
// that was upgraded to the maintained form carries the full incr
// maintenance state (classifier result, keyed measure, m̄ dedup keys,
// newk counter, pres(Q)) plus the aggregated ans(Q); a still-plain
// (lazily upgradable) view carries just its pres(Q) and ans(Q)
// snapshots and re-admits as upgradable — the restart preserves the
// registry's lazy-upgrade economics instead of forcing the costlier
// form on every entry. Each entry is tagged with the (baseEpoch,
// deltaSeq) store version it reflects. Restore re-admits entries
// against a store recovered to the same base epoch: a view saved at the
// exact current version comes back verbatim; a maintained view saved at
// an older delta sequence is Sync'd through the store's delta feed to
// catch up, while a plain one re-admits behind and upgrades lazily at
// its first use. Either way the server answers the warmed queries from
// materialized views after a restart without a single direct
// evaluation of the current entries.
//
// Term IDs inside the serialized relations are dictionary IDs of the
// instance the registry answers over. They are only meaningful against a
// store whose dictionary assigns identically — which is exactly what
// snapshot + WAL recovery reproduces. Restore guards this with the
// recorded base epoch and dictionary size and skips (never mis-admits)
// entries that do not line up.
//
// File layout (section framing and codecs in internal/persist):
//
//	magic "RDCV" | version 2
//	section META     store (base, seq), dictionary length, entry count
//	section ENTRIES  entries, oldest first (re-admission preserves LRU order)
//
// Version 2 prefixes every entry with a kind byte: 1 = maintained
// (incr state + ans), 0 = plain (pres + ans, upgradable). Version-1
// files (all entries maintained, no kind byte) still restore.

import (
	"fmt"
	"io"

	"rdfcube/internal/agg"
	"rdfcube/internal/algebra"
	"rdfcube/internal/core"
	"rdfcube/internal/dict"
	"rdfcube/internal/incr"
	"rdfcube/internal/persist"
	"rdfcube/internal/rdf"
	"rdfcube/internal/sparql"
	"rdfcube/internal/store"
)

const (
	viewsMagic   = "RDCV"
	viewsVersion = 2

	viewsSecMeta    uint8 = 1
	viewsSecEntries uint8 = 2

	entryKindPlain      byte = 0
	entryKindMaintained byte = 1
)

// Save writes a snapshot of the registry's persistable views to w and
// returns how many it captured. Maintained entries serialize their incr
// state; plain upgradable entries serialize their pres/ans snapshots.
// Entries that failed their upgrade (neither maintained nor upgradable)
// are skipped — they could not catch up with a store that has moved, so
// persisting them would promise more than a restart can deliver.
func (r *Registry) Save(w io.Writer) (int, error) {
	r.mu.Lock()
	entries := make([]*entry, 0, r.lru.Len())
	for el := r.lru.Back(); el != nil; el = el.Prev() { // oldest first
		e := el.Value.(*entry)
		if e.mp != nil || e.upgradable {
			entries = append(entries, e)
		}
	}
	ver := r.st.Version()
	dictLen := r.st.Dict().Len()
	r.mu.Unlock()

	var ee persist.Enc
	saved := 0
	for _, e := range entries {
		e.mu.Lock()
		if e.mp == nil {
			ee.Byte(entryKindPlain)
			encodeQuery(&ee, e.query)
			ee.Uvarint(e.ver.Base)
			ee.Uvarint(e.ver.Seq)
			encodeRelation(&ee, e.pres)
			encodeRelation(&ee, e.ans)
			e.mu.Unlock()
			saved++
			continue
		}
		st, err := e.mp.State()
		if err != nil {
			e.mu.Unlock()
			continue // dirty mid-maintenance state is not resumable
		}
		ee.Byte(entryKindMaintained)
		encodeQuery(&ee, e.query)
		ee.Uvarint(st.Ver.Base)
		ee.Uvarint(st.Ver.Seq)
		encodeRelation(&ee, st.C)
		encodeRelation(&ee, st.Mk)
		encodeRelation(&ee, st.Pres)
		ee.Uvarint(uint64(len(st.MbarKeys)))
		for _, k := range st.MbarKeys {
			ee.String(k)
		}
		ee.Uvarint(st.NextKey)
		encodeRelation(&ee, e.ans)
		e.mu.Unlock()
		saved++
	}

	var me persist.Enc
	me.Uvarint(ver.Base)
	me.Uvarint(ver.Seq)
	me.Uvarint(uint64(dictLen))
	me.Uvarint(uint64(saved))

	fw := persist.NewFileWriter(viewsMagic, viewsVersion)
	fw.Section(viewsSecMeta, me.Bytes())
	fw.Section(viewsSecEntries, ee.Bytes())
	return saved, fw.Write(w)
}

// Restore re-admits the views of a snapshot written by Save against the
// registry's (recovered) instance. Views whose base epoch does not match
// the store's — or that fail any structural check — are skipped, not
// errors; views behind on the delta sequence are caught up through the
// store's feed. It returns the number of views admitted. Restore must
// not run concurrently with writes to the instance (call it during
// startup, before serving).
func (r *Registry) Restore(rd io.Reader) (int, error) {
	f, err := persist.ReadFile(rd, viewsMagic)
	if err != nil {
		return 0, err
	}
	if f.Version != 1 && f.Version != viewsVersion {
		return 0, fmt.Errorf("%w: unsupported view snapshot version %d", persist.ErrCorrupt, f.Version)
	}
	meta, err := f.Section(viewsSecMeta)
	if err != nil {
		return 0, err
	}
	savedBase := meta.Uvarint()
	_ = meta.Uvarint() // saved delta seq (informational)
	savedDictLen := meta.Uvarint()
	count := int(meta.Uvarint())
	if err := meta.Err(); err != nil {
		return 0, err
	}

	cur := r.st.Version()
	if savedBase != cur.Base || savedDictLen > uint64(r.st.Dict().Len()) {
		// A different store (or one recovered short of the snapshot):
		// term IDs would be meaningless. Nothing to warm.
		return 0, nil
	}

	ents, err := f.Section(viewsSecEntries)
	if err != nil {
		return 0, err
	}
	restored := 0
	for i := 0; i < count; i++ {
		kind := entryKindMaintained // version-1 files carry no kind byte
		if f.Version >= 2 {
			kind = ents.Byte()
		}
		if kind == entryKindPlain {
			q, ever, pres, ans, err := decodePlainEntry(ents)
			if err != nil {
				return restored, err
			}
			if ever.Base != cur.Base || ever.Seq > cur.Seq {
				continue // saved against a feed this store cannot replay
			}
			// Re-admit as a plain upgradable entry, possibly behind on the
			// delta sequence: the first use that needs it current performs
			// the lazy upgrade, exactly as if the entry had never left.
			fam := familyKey(q)
			e := &entry{
				fam:        fam,
				key:        exactKey(fam, q),
				query:      q,
				upgradable: true,
				pres:       pres,
				ans:        ans,
				ver:        ever,
			}
			e.bytes = relationBytes(e.pres) + relationBytes(e.ans) + entryOverhead
			// The snapshot carries no measured cost; score restored
			// entries at break-even (~1 eval-ns per byte) so cost-mode
			// eviction neither pins nor summarily dumps them.
			e.costNs = e.bytes
			r.mu.Lock()
			r.insertLocked(e)
			admitted := e.elem != nil
			r.mu.Unlock()
			if admitted {
				restored++
			}
			continue
		}
		q, st, ans, err := decodeEntry(ents)
		if err != nil {
			return restored, err
		}
		if st.Ver.Base != cur.Base || st.Ver.Seq > cur.Seq {
			continue // saved against a feed this store cannot replay
		}
		mp, err := incr.FromState(r.ev, q, st)
		if err != nil {
			continue
		}
		if st.Ver != cur {
			// Catch up through the delta feed. A refresh means the base
			// moved underneath (should not happen during startup) — the
			// entry would have cost a recomputation, so drop it.
			if _, _, refreshed, err := mp.Sync(); err != nil || refreshed {
				continue
			}
			if ans, err = mp.Answer(); err != nil {
				continue
			}
		}
		fam := familyKey(q)
		e := &entry{
			fam:   fam,
			key:   exactKey(fam, q),
			query: mp.Query(),
			mp:    mp,
			pres:  mp.Pres(),
			ans:   ans,
			ver:   cur,
		}
		e.bytes = relationBytes(e.pres) + relationBytes(e.ans) + entryOverhead
		e.costNs = e.bytes // break-even score; see above
		r.mu.Lock()
		r.insertLocked(e)
		admitted := e.elem != nil
		r.mu.Unlock()
		if admitted {
			restored++
		}
	}
	if err := ents.Err(); err != nil {
		return restored, err
	}
	return restored, nil
}

// encodeQuery serializes a core.Query: both BGPs, the aggregation name
// and Σ.
func encodeQuery(e *persist.Enc, q *core.Query) {
	encodeBGP(e, q.Classifier)
	encodeBGP(e, q.Measure)
	e.String(q.Agg.Name())
	e.Uvarint(uint64(len(q.Sigma)))
	for dim, vals := range q.Sigma {
		e.String(dim)
		e.Uvarint(uint64(len(vals)))
		for _, t := range vals {
			e.Term(t)
		}
	}
}

func encodeBGP(e *persist.Enc, q *sparql.Query) {
	e.String(q.Name)
	e.Uvarint(uint64(len(q.Head)))
	for _, v := range q.Head {
		e.String(v)
	}
	e.Uvarint(uint64(len(q.Patterns)))
	for _, tp := range q.Patterns {
		encodeNode(e, tp.S)
		encodeNode(e, tp.P)
		encodeNode(e, tp.O)
	}
}

func encodeNode(e *persist.Enc, n sparql.Node) {
	if n.IsVar() {
		e.Byte(1)
		e.String(n.Var)
	} else {
		e.Byte(0)
		e.Term(n.Term)
	}
}

// encodeRelation serializes a relation: columns, then rows as typed
// cells, each prefixed by its column's kind byte.
func encodeRelation(e *persist.Enc, rel *algebra.Relation) {
	e.Uvarint(uint64(len(rel.Cols)))
	for _, c := range rel.Cols {
		e.String(c)
	}
	e.Uvarint(uint64(rel.Len()))
	for i := 0; i < rel.Len(); i++ {
		for j := range rel.Data {
			col := &rel.Data[j]
			e.Byte(byte(col.Kind))
			switch col.Kind {
			case algebra.TermValue:
				e.Uvarint(uint64(col.IDs[i]))
			case algebra.NumValue:
				e.Float64(col.Nums[i])
			case algebra.KeyValue:
				e.Uvarint(col.Keys[i])
			}
		}
	}
}

func decodeEntry(d *persist.Dec) (*core.Query, *incr.State, *algebra.Relation, error) {
	q, err := decodeQuery(d)
	if err != nil {
		return nil, nil, nil, err
	}
	st := &incr.State{}
	st.Ver = store.Version{Base: d.Uvarint(), Seq: d.Uvarint()}
	if st.C, err = decodeRelation(d); err != nil {
		return nil, nil, nil, err
	}
	if st.Mk, err = decodeRelation(d); err != nil {
		return nil, nil, nil, err
	}
	if st.Pres, err = decodeRelation(d); err != nil {
		return nil, nil, nil, err
	}
	nKeys := d.Count(1)
	st.MbarKeys = make([]string, 0, nKeys)
	for i := 0; i < nKeys; i++ {
		st.MbarKeys = append(st.MbarKeys, d.String())
	}
	st.NextKey = d.Uvarint()
	ans, err := decodeRelation(d)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := d.Err(); err != nil {
		return nil, nil, nil, err
	}
	return q, st, ans, nil
}

// decodePlainEntry decodes a kind-0 (plain, upgradable) entry: query,
// reflected store version, pres(Q), ans(Q).
func decodePlainEntry(d *persist.Dec) (*core.Query, store.Version, *algebra.Relation, *algebra.Relation, error) {
	q, err := decodeQuery(d)
	if err != nil {
		return nil, store.Version{}, nil, nil, err
	}
	ver := store.Version{Base: d.Uvarint(), Seq: d.Uvarint()}
	pres, err := decodeRelation(d)
	if err != nil {
		return nil, store.Version{}, nil, nil, err
	}
	ans, err := decodeRelation(d)
	if err != nil {
		return nil, store.Version{}, nil, nil, err
	}
	if err := d.Err(); err != nil {
		return nil, store.Version{}, nil, nil, err
	}
	return q, ver, pres, ans, nil
}

func decodeQuery(d *persist.Dec) (*core.Query, error) {
	classifier, err := decodeBGP(d)
	if err != nil {
		return nil, err
	}
	measure, err := decodeBGP(d)
	if err != nil {
		return nil, err
	}
	f, err := agg.ByName(d.String())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", persist.ErrCorrupt, err)
	}
	q := &core.Query{Classifier: classifier, Measure: measure, Agg: f}
	nSigma := d.Count(2)
	if nSigma > 0 {
		q.Sigma = make(core.Sigma, nSigma)
		for i := 0; i < nSigma; i++ {
			dim := d.String()
			nVals := d.Count(2)
			vals := make([]rdf.Term, 0, nVals)
			for j := 0; j < nVals; j++ {
				vals = append(vals, d.Term())
			}
			q.Sigma[dim] = vals
		}
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", persist.ErrCorrupt, err)
	}
	return q, nil
}

func decodeBGP(d *persist.Dec) (*sparql.Query, error) {
	q := &sparql.Query{Name: d.String()}
	nHead := d.Count(1)
	for i := 0; i < nHead; i++ {
		q.Head = append(q.Head, d.String())
	}
	nPat := d.Count(6)
	for i := 0; i < nPat; i++ {
		var tp sparql.TriplePattern
		var err error
		if tp.S, err = decodeNode(d); err != nil {
			return nil, err
		}
		if tp.P, err = decodeNode(d); err != nil {
			return nil, err
		}
		if tp.O, err = decodeNode(d); err != nil {
			return nil, err
		}
		q.Patterns = append(q.Patterns, tp)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return q, nil
}

func decodeNode(d *persist.Dec) (sparql.Node, error) {
	switch d.Byte() {
	case 1:
		v := d.String()
		if d.Err() != nil {
			return sparql.Node{}, d.Err()
		}
		if v == "" {
			return sparql.Node{}, fmt.Errorf("%w: empty variable name", persist.ErrCorrupt)
		}
		return sparql.V(v), nil
	case 0:
		t := d.Term()
		if d.Err() != nil {
			return sparql.Node{}, d.Err()
		}
		return sparql.C(t), nil
	default:
		if d.Err() != nil {
			return sparql.Node{}, d.Err()
		}
		return sparql.Node{}, fmt.Errorf("%w: bad node tag", persist.ErrCorrupt)
	}
}

// decodeRelation mirrors encodeRelation, validating cell kinds (one
// kind per column) and row geometry so corrupt files fail closed.
func decodeRelation(d *persist.Dec) (*algebra.Relation, error) {
	nCols := d.Count(1)
	cols := make([]string, 0, nCols)
	for i := 0; i < nCols; i++ {
		cols = append(cols, d.String())
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	elem := nCols
	if elem < 1 {
		elem = 1
	}
	nRows := d.Count(elem)
	rel := algebra.NewRelation(cols...)
	for i := 0; i < nRows; i++ {
		for j := 0; j < nCols; j++ {
			col := &rel.Data[j]
			kind := algebra.ValueKind(d.Byte())
			if i == 0 {
				col.Kind = kind
			}
			switch {
			case kind != col.Kind:
				if err := d.Err(); err != nil {
					return nil, err
				}
				return nil, fmt.Errorf("%w: cell kind %d in a kind-%d column", persist.ErrCorrupt, kind, col.Kind)
			case kind == algebra.TermValue:
				col.IDs = append(col.IDs, dict.ID(d.Uvarint()))
			case kind == algebra.NumValue:
				col.Nums = append(col.Nums, d.Float64())
			case kind == algebra.KeyValue:
				col.Keys = append(col.Keys, d.Uvarint())
			default:
				if err := d.Err(); err != nil {
					return nil, err
				}
				return nil, fmt.Errorf("%w: bad cell kind %d", persist.ErrCorrupt, kind)
			}
		}
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return rel, nil
}

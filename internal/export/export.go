// Package export renders cube relations (and pres(Q) partial results)
// for human and machine consumption: aligned text tables, CSV, and JSON.
// Term IDs are resolved through the graph dictionary; numeric literals
// print their lexical form, IRIs print either in full or abbreviated by
// a reverse-prefix table.
package export

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"rdfcube/internal/algebra"
	"rdfcube/internal/dict"
	"rdfcube/internal/sparql"
)

// Options controls rendering.
type Options struct {
	// Dict resolves term IDs; required.
	Dict *dict.Dictionary
	// Prefixes, when set, abbreviates IRIs to prefix:local form using
	// the longest matching namespace.
	Prefixes sparql.Prefixes
	// SortRows renders rows in deterministic sorted order.
	SortRows bool
}

// cellString renders one relation cell.
func (o Options) cellString(v algebra.Value) string {
	switch v.Kind {
	case algebra.TermValue:
		t, ok := o.Dict.Decode(v.ID)
		if !ok {
			return fmt.Sprintf("?%d", v.ID)
		}
		if t.IsIRI() && o.Prefixes != nil {
			if s, ok := o.abbreviate(t.Value()); ok {
				return s
			}
		}
		return t.Value()
	default:
		return v.String()
	}
}

// abbreviate rewrites iri to prefix:local using the longest namespace.
func (o Options) abbreviate(iri string) (string, bool) {
	best, bestNS := "", ""
	for name, nsIRI := range o.Prefixes {
		if nsIRI == "" || !strings.HasPrefix(iri, nsIRI) {
			continue
		}
		// Longest namespace wins; ties break on the shorter, then
		// lexicographically smaller prefix name, for deterministic output.
		if len(nsIRI) > len(bestNS) ||
			(len(nsIRI) == len(bestNS) && (len(name) < len(best) || (len(name) == len(best) && name < best))) {
			best, bestNS = name, nsIRI
		}
	}
	if bestNS == "" {
		return "", false
	}
	return best + ":" + iri[len(bestNS):], true
}

// rows materializes string cells, optionally sorted.
func (o Options) rows(rel *algebra.Relation) [][]string {
	out := make([][]string, rel.Len())
	for i := range out {
		cells := make([]string, len(rel.Cols))
		for j := range cells {
			cells[j] = o.cellString(rel.Cell(i, j))
		}
		out[i] = cells
	}
	if o.SortRows {
		sort.Slice(out, func(i, j int) bool {
			for k := range out[i] {
				if out[i][k] != out[j][k] {
					return out[i][k] < out[j][k]
				}
			}
			return false
		})
	}
	return out
}

// Text writes an aligned, header-first text table.
func Text(w io.Writer, rel *algebra.Relation, opts Options) error {
	rows := opts.rows(rel)
	widths := make([]int, len(rel.Cols))
	for i, c := range rel.Cols {
		widths[i] = len(c)
	}
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) error {
		var sb strings.Builder
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			if pad := widths[i] - len(cell); pad > 0 && i < len(cells)-1 {
				sb.WriteString(strings.Repeat(" ", pad))
			}
		}
		sb.WriteByte('\n')
		_, err := io.WriteString(w, sb.String())
		return err
	}
	if err := line(rel.Cols); err != nil {
		return err
	}
	sep := make([]string, len(rel.Cols))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := line(sep); err != nil {
		return err
	}
	for _, row := range rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}

// CSV writes an RFC 4180 document with a header row.
func CSV(w io.Writer, rel *algebra.Relation, opts Options) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(rel.Cols); err != nil {
		return err
	}
	for _, row := range opts.rows(rel) {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// jsonCube is the JSON document shape.
type jsonCube struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// JSON writes {"columns": [...], "rows": [[...], ...]}.
func JSON(w io.Writer, rel *algebra.Relation, opts Options) error {
	doc := jsonCube{Columns: rel.Cols, Rows: opts.rows(rel)}
	if doc.Rows == nil {
		doc.Rows = [][]string{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// Format dispatches by name: "text", "csv" or "json".
func Format(w io.Writer, rel *algebra.Relation, format string, opts Options) error {
	switch format {
	case "text", "":
		return Text(w, rel, opts)
	case "csv":
		return CSV(w, rel, opts)
	case "json":
		return JSON(w, rel, opts)
	default:
		return fmt.Errorf("export: unknown format %q (want text, csv or json)", format)
	}
}

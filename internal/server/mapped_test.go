package server

// Bigger-than-RAM serving tests: the -mmap server must recover a mapped
// base from its data-dir, answer byte-identically to the heap path,
// spill an oversized delta overlay to disk, fold and remap under
// concurrent readers, and coalesce concurrent WAL appends into shared
// fsyncs — all without changing a single answer.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"rdfcube/internal/datagen"
	"rdfcube/internal/store"
)

// mappedServer boots a durable server in mapped mode over dir.
func mappedServer(t *testing.T, dir string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.DataDir = dir
	cfg.Mapped = true
	srv, err := Open(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestMappedServerLifecycle is the mapped acceptance scenario: load →
// restart into a mapped base → answers identical to the heap epoch →
// inserts past the spill threshold spill the overlay to disk → another
// restart recovers everything (spill runs are transient; the WAL is the
// durable copy).
func TestMappedServerLifecycle(t *testing.T) {
	dir := t.TempDir()
	q := bloggerQueryRequest()

	// Epoch 1: heap-durable server seeds the data-dir.
	_, ts1 := durableServer(t, dir)
	loadBloggers(t, ts1, 120)
	insertFacts(t, ts1, 0, 3)
	heapRows, _ := queryRows(t, ts1, q)
	heapStats := statsz(t, ts1)
	if heapStats.Mmap != nil {
		t.Fatalf("heap server reports mmap stats: %+v", heapStats.Mmap)
	}
	ts1.Close()

	// Epoch 2: mapped boot migrates the v2 snapshot to the v3 mapped
	// layout and serves the base zero-copy.
	srv2, ts2 := mappedServer(t, dir, Config{
		SpillThreshold:   40,
		CompactThreshold: 1 << 20, // keep compaction out of the spill assertion
	})
	if !srv2.base.Mapped() {
		t.Fatal("base not mapped after -mmap recovery")
	}
	mappedRows, _ := queryRows(t, ts2, q)
	if mappedRows != heapRows {
		t.Fatalf("mapped rows diverge from heap rows:\n heap  %s\n mapped %s", heapRows, mappedRows)
	}
	st := statsz(t, ts2)
	if st.Mmap == nil || st.Mmap.MappedBytes == 0 || st.Mmap.Path == "" {
		t.Fatalf("mapped server /statsz mmap block: %+v", st.Mmap)
	}

	// Push the delta overlay past the spill threshold: 3 bloggers stay
	// in memory (15 triples), 9 more cross 40 and spill.
	insertFacts(t, ts2, 100, 12)
	spilledRows, _ := queryRows(t, ts2, q)
	st = statsz(t, ts2)
	if st.Mmap.Spills == 0 {
		t.Fatalf("no spill after %d delta triples (threshold 40): %+v",
			st.Instance.DeltaTriples, st.Mmap)
	}
	if st.Mmap.SpillRunTriples == 0 {
		t.Fatalf("spill counted but no run triples: %+v", st.Mmap)
	}
	ts2.Close()
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}

	// Epoch 3: recovery replays the WAL over the mapped snapshot — the
	// spilled rows come back even though spill runs are transient.
	srv3, ts3 := mappedServer(t, dir, Config{SpillThreshold: 40})
	if !srv3.base.Mapped() {
		t.Fatal("base not mapped after second recovery")
	}
	recoveredRows, _ := queryRows(t, ts3, q)
	if recoveredRows != spilledRows {
		t.Fatalf("recovered rows diverge:\n before %s\n after  %s", spilledRows, recoveredRows)
	}
}

// TestMappedCompactionRemap drives the delta overlay past the compact
// threshold on a mapped durable base and checks the background fold
// lands: a new v3 snapshot is written, the mapping swaps, the overlay
// drains — and answers never change.
func TestMappedCompactionRemap(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := durableServer(t, dir)
	loadBloggers(t, ts1, 80)
	ts1.Close()

	srv, ts := mappedServer(t, dir, Config{
		CompactThreshold:     30,
		BackgroundCompaction: true,
	})
	q := bloggerQueryRequest()
	before, _ := queryRows(t, ts, q)
	insertFacts(t, ts, 200, 10) // 50 triples: crosses the threshold
	after, _ := queryRows(t, ts, q)
	if before == after {
		t.Fatal("inserts did not change the aggregate (test is vacuous)")
	}

	// The fold runs in a background goroutine; wait for the overlay to
	// drain into a new mapped base.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := statsz(t, ts)
		if st.Base.DeltaTriples == 0 && st.Base.BaseEpoch >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("compaction never folded: %+v", st.Base)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !srv.base.Mapped() {
		t.Fatal("base lost its mapping across compaction")
	}
	folded, _ := queryRows(t, ts, q)
	if folded != after {
		t.Fatalf("fold changed answers:\n before %s\n after  %s", after, folded)
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery from the folded snapshot agrees too.
	_, ts2 := mappedServer(t, dir, Config{})
	recovered, _ := queryRows(t, ts2, q)
	if recovered != after {
		t.Fatalf("post-fold recovery diverges:\n want %s\n got  %s", after, recovered)
	}
}

// TestMappedRemapUnderConcurrentReaders hammers queries while writes
// force repeated mapped compactions — the remap swap must never tear a
// reader (run with -race).
func TestMappedRemapUnderConcurrentReaders(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := durableServer(t, dir)
	loadBloggers(t, ts1, 60)
	ts1.Close()

	_, ts := mappedServer(t, dir, Config{
		CompactThreshold:     25,
		BackgroundCompaction: true,
	})
	q := bloggerQueryRequest()

	stop := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var qr QueryResponse
				status, body := postJSONE(ts.Client(), ts.URL+"/query", q, &qr)
				if status != http.StatusOK {
					errs <- fmt.Errorf("query status %d: %s", status, body)
					return
				}
			}
		}()
	}
	// Writer: every round of inserts crosses the compact threshold, so
	// the readers race several remap cycles.
	for i := 0; i < 8; i++ {
		if err := insertFactsE(ts, 1000+i*10, 10); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// TestServerWALGroupCommit runs many concurrent inserters against a
// group-commit WAL and checks the fsyncs coalesced, the accounting adds
// up, and recovery sees every acknowledged batch.
func TestServerWALGroupCommit(t *testing.T) {
	dir := t.TempDir()
	srv, ts := func() (*Server, *httptest.Server) {
		srv, err := Open(nil, Config{DataDir: dir, WALGroupCommit: 2 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		return srv, ts
	}()
	loadBloggers(t, ts, 40)

	const writers, rounds = 8, 6
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := insertFactsE(ts, 5000+wi*1000+r*10, 2); err != nil {
					errs <- err
					return
				}
			}
		}(wi)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	st := statsz(t, ts)
	d := st.Durability
	if d == nil {
		t.Fatal("no durability stats")
	}
	if d.WALGroupSyncs == 0 {
		t.Fatal("group commit armed but zero group syncs")
	}
	// Every durable batch was covered by exactly one fsync: either its
	// own (syncs) or another writer's (coalesced).
	if d.WALGroupSyncs+d.WALGroupCoalesced != d.WALBatches {
		t.Fatalf("accounting: syncs %d + coalesced %d != batches %d",
			d.WALGroupSyncs, d.WALGroupCoalesced, d.WALBatches)
	}
	q := bloggerQueryRequest()
	rows, _ := queryRows(t, ts, q)
	wantTriples := st.Base.Triples

	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	_, ts2 := durableServer(t, dir)
	st2 := statsz(t, ts2)
	if st2.Base.Triples != wantTriples {
		t.Fatalf("recovered %d triples, want %d", st2.Base.Triples, wantTriples)
	}
	if got, _ := queryRows(t, ts2, q); got != rows {
		t.Fatalf("group-commit recovery diverges:\n want %s\n got  %s", rows, got)
	}
}

// postJSONE is postJSON for goroutines: it returns errors through the
// status/body instead of calling t.Fatal.
func postJSONE(client *http.Client, url string, body any, out any) (int, string) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, err.Error()
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, err.Error()
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err.Error()
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, out); err != nil {
			return 0, err.Error()
		}
	}
	return resp.StatusCode, string(data)
}

// insertFactsE is insertFacts for goroutines: it returns the error
// instead of calling t.Fatal.
func insertFactsE(ts *httptest.Server, start, count int) error {
	var buf bytes.Buffer
	for i := start; i < start+count; i++ {
		fmt.Fprintf(&buf, "<%vwu%d> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <%vBlogger> .\n", datagen.NS, i, datagen.NS)
		fmt.Fprintf(&buf, "<%vwu%d> <%vhasAge> \"%d\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n", datagen.NS, i, datagen.NS, 20+i%7)
		fmt.Fprintf(&buf, "<%vwu%d> <%vlivesIn> <%vcity%d> .\n", datagen.NS, i, datagen.NS, datagen.NS, i%3)
		fmt.Fprintf(&buf, "<%vwu%d> <%vwrotePost> <%vwp%d> .\n", datagen.NS, i, datagen.NS, datagen.NS, i)
		fmt.Fprintf(&buf, "<%vwp%d> <%vpostedOn> <%vsite%d> .\n", datagen.NS, i, datagen.NS, datagen.NS, i%4)
	}
	resp, err := ts.Client().Post(ts.URL+"/insert", "text/plain", &buf)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/insert: status %d", resp.StatusCode)
	}
	return nil
}

// TestMappedCheckpointKeepsTailTerms lands an insert that interns new
// terms between a mapped compaction's prepare and its install, then
// checkpoints and reopens without a final checkpoint. The compaction's
// snapshot holds the dictionary only up to the prepare, so the WAL tail
// written by the checkpoint — and every later append — must carry the
// terms interned after it, or recovery meets triples that reference
// unknown term IDs.
func TestMappedCheckpointKeepsTailTerms(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := durableServer(t, dir)
	loadBloggers(t, ts1, 40)
	ts1.Close()

	srv, ts := mappedServer(t, dir, Config{CompactThreshold: 1 << 20})
	insertFacts(t, ts, 200, 3)
	g := srv.base
	srv.mu.RLock()
	pm, err := g.PrepareMappedCompaction(srv.dur.fsys, srv.dur.path("base.snap"), store.MappedOptions{})
	srv.mu.RUnlock()
	if err != nil || pm == nil {
		t.Fatalf("prepare: %v %v", pm, err)
	}
	insertFacts(t, ts, 300, 3) // new terms, interned after the prepare
	srv.mu.Lock()
	ok, err := g.InstallMappedCompaction(pm)
	if err == nil && ok {
		err = srv.checkpointLocked()
	}
	srv.mu.Unlock()
	if err != nil || !ok {
		t.Fatalf("install+checkpoint: ok=%v err=%v", ok, err)
	}
	if !g.MappedBaseClean() {
		t.Fatal("checkpoint did not take the mapped-base-clean path (test is vacuous)")
	}
	insertFacts(t, ts, 400, 3) // appended to the checkpoint's fresh WAL
	want, _ := queryRows(t, ts, bloggerQueryRequest())
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts2 := mappedServer(t, dir, Config{})
	if got, _ := queryRows(t, ts2, bloggerQueryRequest()); got != want {
		t.Fatalf("recovered rows diverge:\n want %s\n got  %s", want, got)
	}
}

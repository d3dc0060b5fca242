package serve

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestSnapshotSwapRace is the torn-snapshot test: 8 goroutines hammer
// /predict while a background goroutine keeps swapping between two
// distinct snapshots. Every response body must byte-match the response
// that exactly one of the two published snapshots produces serially —
// any mixture (version from A, predictions from B) is a torn read.
// Run under -race this also proves the read path is data-race-free.
func TestSnapshotSwapRace(t *testing.T) {
	db, snapA, snapB := testEnv(t)
	clock := &fakeClock{}
	s := New(db, snapA, Options{Now: clock.now})

	queries := []string{
		templateSQL(t, 1, 21),
		templateSQL(t, 3, 22),
		templateSQL(t, 6, 23),
	}
	bodies := make([]string, len(queries))
	for i, q := range queries {
		bodies[i] = predictBody(t, q)
	}

	// Precompute, serially, the exact response each snapshot yields for
	// each query. Responses are deterministic functions of (snapshot,
	// query): no timestamps, no maps-with-ambiguous-order (encoding/json
	// sorts map keys).
	expect := map[string]map[string]bool{} // body -> set of valid responses
	for _, snap := range []*Snapshot{snapA, snapB} {
		s.Publish(snap)
		for i := range queries {
			w := do(s, http.MethodPost, "/predict", bodies[i])
			if w.Code != http.StatusOK {
				t.Fatalf("serial predict on %s: %d: %s", snap.Version, w.Code, w.Body.String())
			}
			if expect[bodies[i]] == nil {
				expect[bodies[i]] = map[string]bool{}
			}
			expect[bodies[i]][w.Body.String()] = true
		}
	}
	for body, variants := range expect {
		if len(variants) != 2 {
			t.Fatalf("snapshots A and B must produce distinct responses for %s (got %d variants)", body, len(variants))
		}
	}
	s.Publish(snapA)

	const (
		hammerGoroutines = 8
		perGoroutine     = 150
	)
	var wg sync.WaitGroup
	errs := make(chan string, hammerGoroutines)
	done := make(chan struct{})

	// Background swapper: keep alternating A/B for the whole hammer run,
	// yielding between swaps so every request window can straddle one.
	var swapperWG sync.WaitGroup
	swapperWG.Add(1)
	go func() {
		defer swapperWG.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if i%2 == 0 {
				s.Publish(snapB)
			} else {
				s.Publish(snapA)
			}
			runtime.Gosched()
		}
	}()

	seen := make([]map[string]bool, hammerGoroutines)
	for g := 0; g < hammerGoroutines; g++ {
		wg.Add(1)
		seen[g] = map[string]bool{}
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				body := bodies[i%len(bodies)]
				w := do(s, http.MethodPost, "/predict", body)
				if w.Code != http.StatusOK {
					errs <- w.Body.String()
					return
				}
				got := w.Body.String()
				if !expect[body][got] {
					errs <- "torn response: " + got
					return
				}
				var res PredictResult
				if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
					errs <- "bad response JSON: " + got
					return
				}
				seen[g][res.ModelVersion] = true
			}
		}(g)
	}
	wg.Wait()
	close(done)
	swapperWG.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	versions := map[string]bool{}
	for _, m := range seen {
		for v := range m {
			versions[v] = true
		}
	}
	if !versions["vA"] || !versions["vB"] {
		t.Fatalf("hammer observed versions %v; both snapshots should serve under swapping", versions)
	}
}

// TestIdempotentReloadBitIdentity: reloading the same on-disk snapshot
// must republish the identical version and leave predictions
// bit-identical — the client-visible contract that a no-op reload is a
// no-op.
func TestIdempotentReloadBitIdentity(t *testing.T) {
	db, snapA, _ := testEnv(t)
	dir := t.TempDir()
	if err := SaveSnapshot(dir, snapA); err != nil {
		t.Fatal(err)
	}
	first, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	clock := &fakeClock{}
	s := New(db, first, Options{
		Now:    clock.now,
		Reload: func() (*Snapshot, error) { return LoadSnapshot(dir) },
	})

	bodies := make([]string, 0, 3)
	for _, tmpl := range []int{1, 10, 14} {
		bodies = append(bodies, predictBody(t, templateSQL(t, tmpl, 31)))
	}
	before := make([]string, len(bodies))
	for i, b := range bodies {
		w := do(s, http.MethodPost, "/predict", b)
		if w.Code != http.StatusOK {
			t.Fatalf("before reload: %d: %s", w.Code, w.Body.String())
		}
		before[i] = w.Body.String()
	}

	w := do(s, http.MethodPost, "/reload", "")
	if w.Code != http.StatusOK {
		t.Fatalf("reload: %d: %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), first.Version) {
		t.Fatalf("idempotent reload changed the version: %s", w.Body.String())
	}
	if s.Current() == first {
		t.Fatal("reload should publish a fresh snapshot object, even when equivalent")
	}
	if s.Current().Version != first.Version {
		t.Fatalf("versions differ after idempotent reload: %q vs %q", s.Current().Version, first.Version)
	}

	for i, b := range bodies {
		w := do(s, http.MethodPost, "/predict", b)
		if w.Code != http.StatusOK {
			t.Fatalf("after reload: %d: %s", w.Code, w.Body.String())
		}
		if w.Body.String() != before[i] {
			t.Fatalf("prediction %d not bit-identical after idempotent reload:\nbefore: %s\nafter:  %s",
				i, before[i], w.Body.String())
		}
	}
}

// TestSaveSnapshotIsAtomic: a model directory rewritten while a reload
// reads it must yield one whole snapshot or the other. One goroutine
// saves snapshots A and B in turn over the same directory; every
// concurrent LoadSnapshot must succeed with the version of one of them,
// and the directory holds the one file afterwards.
func TestSaveSnapshotIsAtomic(t *testing.T) {
	_, snapA, snapB := testEnv(t)
	versions := map[string]bool{}
	for _, snap := range []*Snapshot{snapA, snapB} {
		dir := t.TempDir()
		if err := SaveSnapshot(dir, snap); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadSnapshot(dir)
		if err != nil {
			t.Fatal(err)
		}
		versions[loaded.Version] = true
	}
	if len(versions) != 2 {
		t.Fatalf("snapshots A and B load to versions %v, want two", versions)
	}

	dir := t.TempDir()
	if err := SaveSnapshot(dir, snapA); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	saved := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				saved <- nil
				return
			default:
			}
			if err := SaveSnapshot(dir, []*Snapshot{snapB, snapA}[i%2]); err != nil {
				saved <- err
				return
			}
		}
	}()
	seen := map[string]bool{}
	for i := 0; i < 200 && !t.Failed(); i++ {
		snap, err := LoadSnapshot(dir)
		switch {
		case err != nil:
			t.Errorf("load %d during saves: %v", i, err)
		case !versions[snap.Version]:
			t.Errorf("load %d returned version %s, neither A's nor B's", i, snap.Version)
		default:
			seen[snap.Version] = true
		}
	}
	close(stop)
	if err := <-saved; err != nil {
		t.Fatal(err)
	}
	t.Logf("loads saw %d of the two versions", len(seen))
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != snapshotFile {
		t.Fatalf("model directory holds %v, want only %s", entries, snapshotFile)
	}
}

// TestReadPathIsLockFree enforces the acceptance criterion "zero lock
// acquisitions on the /predict read path" structurally: no non-test
// source file in this package may import "sync" or mention mutexes —
// the only blessed synchronization is sync/atomic.
func TestReadPathIsLockFree(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"sync"` {
				t.Errorf("%s imports %s: the serving path must stay lock-free (use sync/atomic)", name, imp.Path.Value)
			}
		}
		src, err := os.ReadFile(filepath.Join(".", name))
		if err != nil {
			t.Fatal(err)
		}
		for _, banned := range []string{"sync.Mutex", "sync.RWMutex", ".Lock()", ".RLock()"} {
			if strings.Contains(string(src), banned) {
				t.Errorf("%s mentions %s: the serving path must stay lock-free", name, banned)
			}
		}
	}
}

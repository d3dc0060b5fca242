package serve

import (
	"fmt"
	"math"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"

	"qpp/internal/tpch"
)

// poison overwrites a stretch of request-arena memory Put released, a
// []T, with values no request computes: NaN floats, large negative
// integers, set bits, true, and a marker string in every field reflection
// may set (pointers, slices, maps and interfaces stay as release cleared
// them, nil). A response that read any of it after the release differs
// from the heap-only server's.
func poison(region any) {
	v := reflect.ValueOf(region)
	for i := 0; i < v.Len(); i++ {
		poisonValue(v.Index(i))
	}
}

func poisonValue(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(-1 << (v.Type().Bits() - 2))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(1<<(v.Type().Bits()-1) | 0x5a)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(math.NaN())
	case reflect.String:
		v.SetString("\x00poisoned")
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			poisonValue(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() {
				poisonValue(f)
			}
		}
	}
}

// arenaCase is one request of the poisoned-arena tests.
type arenaCase struct {
	name, method, target, body string
}

// arenaCases is every way a request leaves the server that the request
// arena covers: each template's fresh draw planned cold, a rebind, a memo
// hit and a cache miss, a batch of all templates, /explain, a body that
// does not decode, a parse error, a plan error and a recovered planner
// panic. cached is whether the server under test holds a plan cache.
func arenaCases(t *testing.T, cached bool) []arenaCase {
	t.Helper()
	var cs []arenaCase
	predict := func(name, sql string) {
		cs = append(cs, arenaCase{name, http.MethodPost, "/predict", predictBody(t, sql)})
	}
	var batch []string
	for _, tmpl := range tpch.Templates {
		sql := templateSQL(t, tmpl, 1)
		predict(fmt.Sprintf("T%d fresh draw", tmpl), sql)
		batch = append(batch, predictBody(t, sql))
	}
	cs = append(cs, arenaCase{"batch of every template", http.MethodPost, "/predict/batch",
		`{"queries": [` + strings.Join(batch, ",") + `]}`})
	if cached {
		trained := map[string]bool{}
		for _, r := range env.recs {
			trained[r.SQL] = true
		}
		rebind := ""
		for seed := int64(100); rebind == ""; seed++ {
			if q := templateSQL(t, 3, seed); !trained[q] {
				rebind = q
			}
		}
		predict("rebind", rebind)
		predict("memo hit", env.recs[0].SQL)
	}
	for _, tmpl := range []int{3, 8, 22} {
		cs = append(cs, arenaCase{fmt.Sprintf("explain T%d", tmpl), http.MethodGet, fmt.Sprintf("/explain?template=%d&seed=7", tmpl), ""})
	}
	cs = append(cs, arenaCase{"explain sql", http.MethodGet, "/explain?sql=" + url.QueryEscape(templateSQL(t, 14, 5)), ""})
	cs = append(cs, arenaCase{"undecodable body", http.MethodPost, "/predict", `{"sql": `})
	predict("parse error", "select from from")
	predict("plan error", "select x from nosuchtable")
	from := make([]string, 65)
	for i := range from {
		from[i] = fmt.Sprintf("nation n%d", i)
	}
	predict("planner panic", "select count(*) from "+strings.Join(from, ", "))
	return cs
}

// arenaServers returns a server whose request arenas are poisoned on
// release and a heap-only one (no arena pool) over the same snapshot,
// with or without its plan cache.
func arenaServers(t *testing.T, cached bool) (poisoned, heap *Server) {
	t.Helper()
	db, snap, _ := testEnv(t)
	if !cached {
		cacheless := *snap
		cacheless.Cache = nil
		snap = &cacheless
	}
	poisoned = New(db, snap, Options{Now: (&fakeClock{}).now})
	poisoned.mem.Poison = poison
	heap = New(db, snap, Options{Now: (&fakeClock{}).now})
	heap.mem = nil
	return poisoned, heap
}

// TestPoisonedArenaResponsesMatchHeap serves every arenaCase, twice, from
// a server whose request arenas are overwritten as they are released,
// and requires each response byte-identical to the heap-only server's:
// no response reads a plan, a parse, a feature vector or a body after its
// arena went back to the pool, and no request sees another's leftovers.
func TestPoisonedArenaResponsesMatchHeap(t *testing.T) {
	for _, cached := range []bool{false, true} {
		t.Run(map[bool]string{false: "cold", true: "cached"}[cached], func(t *testing.T) {
			poisoned, heap := arenaServers(t, cached)
			cases := arenaCases(t, cached)
			statuses := map[int]int{}
			for round := 0; round < 2; round++ {
				for _, c := range cases {
					want := do(heap, c.method, c.target, c.body)
					got := do(poisoned, c.method, c.target, c.body)
					if got.Code != want.Code || got.Body.String() != want.Body.String() ||
						got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
						t.Fatalf("%s: poisoned arena answered %d %q\nheap answered %d %q",
							c.name, got.Code, got.Body.String(), want.Code, want.Body.String())
					}
					if round == 0 {
						statuses[want.Code]++
					}
				}
			}
			// The cases must reach both the success and the error exits.
			if statuses[http.StatusOK] == 0 || statuses[http.StatusBadRequest] < 4 {
				t.Fatalf("statuses %v: the cases no longer cover every exit", statuses)
			}
		})
	}
}

// TestPoisonedArenaConcurrentRequests runs /predict and /predict/batch
// from several goroutines against poisoned request arenas: every response
// must equal the heap-only server's. Under -race it also proves that no
// two requests share an arena.
func TestPoisonedArenaConcurrentRequests(t *testing.T) {
	poisoned, heap := arenaServers(t, false)
	var cases []arenaCase
	for _, c := range arenaCases(t, false) {
		if c.method == http.MethodPost {
			cases = append(cases, c)
		}
	}
	want := make([]string, len(cases))
	for i, c := range cases {
		want[i] = do(heap, c.method, c.target, c.body).Body.String()
	}
	const goroutines, rounds = 4, 2
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range cases {
					i := (k + g*len(cases)/goroutines) % len(cases)
					c := cases[i]
					if got := do(poisoned, c.method, c.target, c.body).Body.String(); got != want[i] {
						t.Errorf("goroutine %d, %s: got %q, want %q", g, c.name, got, want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

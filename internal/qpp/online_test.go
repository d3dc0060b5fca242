package qpp

import (
	"fmt"
	"sync"
	"testing"
)

// TestOnlineCacheConcurrentUse shares one OnlineCache between goroutines,
// which no figure driver does (Fig. 9 makes one per held-out template and
// uses it serially): eight goroutines get and put overlapping signatures,
// then two OnlinePredict callers resolve the same held-out queries through
// one cache. The race detector is the judge (scripts/ci.sh runs this under
// -race three more times); the serial answers are the reference.
func TestOnlineCacheConcurrentUse(t *testing.T) {
	cache := NewOnlineCache()
	models := &SubplanModels{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				sig := fmt.Sprintf("sig%d", (g+n)%5)
				if m, ok := cache.get(sig); ok && m != models {
					t.Errorf("get(%s) = %p, want the one value ever put, %p", sig, m, models)
					return
				}
				cache.put(sig, models)
			}
		}(g)
	}
	wg.Wait()

	const heldOut = 5
	var train, test []*QueryRecord
	for _, r := range quickLargeOpRecords(t) {
		if r.Template == heldOut {
			test = append(test, r)
		} else {
			train = append(train, r)
		}
	}
	ops, err := TrainOperatorModels(train, FeatEstimates, OpModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	idx := BuildSubplanIndex(train)
	cfg := DefaultOnlineConfig()
	cfg.MinOccurrences = 4 // the -short workload has six queries a template
	predictAll := func(c *OnlineCache, out []float64) {
		cfg := cfg
		cfg.Cache = c
		for i, r := range test {
			p, _, err := OnlinePredict(idx, ops, r, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			out[i] = p
		}
	}
	want := make([]float64, len(test))
	predictAll(NewOnlineCache(), want)

	shared := NewOnlineCache()
	var got [2][]float64
	for g := range got {
		got[g] = make([]float64, len(test))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			predictAll(shared, got[g])
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if len(shared.decisions) == 0 {
		t.Fatal("no sub-plan of the held-out template reached the cache: the test shares nothing")
	}
	for g := range got {
		for i := range want {
			if got[g][i] != want[i] {
				t.Fatalf("goroutine %d, query %d: %v through the shared cache, %v serially", g, i, got[g][i], want[i])
			}
		}
	}
}

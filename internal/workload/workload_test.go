package workload

import (
	"testing"

	"qpp/internal/qpp"
)

func buildSmall(t *testing.T, cfg Config) *Dataset {
	t.Helper()
	ds, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestBuildBasics(t *testing.T) {
	ds := buildSmall(t, Config{
		ScaleFactor: 0.002,
		Templates:   []int{1, 6, 13},
		PerTemplate: 4,
		Seed:        3,
	})
	if len(ds.Records) != 12 {
		t.Fatalf("records %d want 12", len(ds.Records))
	}
	for _, r := range ds.Records {
		if r.Time <= 0 || r.Root == nil || !r.Root.Act.Executed {
			t.Fatalf("bad record %+v", r.Template)
		}
		if r.SQL == "" {
			t.Fatal("missing SQL")
		}
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(Config{ScaleFactor: 0, PerTemplate: 1}); err == nil {
		t.Fatal("zero SF must fail")
	}
	if _, err := Build(Config{ScaleFactor: 0.001, PerTemplate: 0}); err == nil {
		t.Fatal("zero per-template must fail")
	}
}

func TestBuildDeterministic(t *testing.T) {
	cfg := Config{ScaleFactor: 0.002, Templates: []int{3}, PerTemplate: 3, Seed: 9}
	a := buildSmall(t, cfg)
	b := buildSmall(t, cfg)
	for i := range a.Records {
		if a.Records[i].Time != b.Records[i].Time {
			t.Fatalf("run %d: %v vs %v", i, a.Records[i].Time, b.Records[i].Time)
		}
		if a.Records[i].SQL != b.Records[i].SQL {
			t.Fatal("query text differs")
		}
	}
}

func TestTimeLimitDropsQueries(t *testing.T) {
	// An absurdly small virtual budget must time every query out.
	ds := buildSmall(t, Config{
		ScaleFactor: 0.002,
		Templates:   []int{1},
		PerTemplate: 3,
		Seed:        5,
		TimeLimit:   1e-9,
	})
	if len(ds.Records) != 0 {
		t.Fatalf("expected all queries to time out, got %d records", len(ds.Records))
	}
	if ds.TimedOut[1] != 3 {
		t.Fatalf("timeout accounting %v", ds.TimedOut)
	}
}

func TestNoiseVariesAcrossQueries(t *testing.T) {
	ds := buildSmall(t, Config{
		ScaleFactor: 0.002,
		Templates:   []int{6},
		PerTemplate: 6,
		Seed:        7,
	})
	distinct := map[float64]bool{}
	for _, r := range ds.Records {
		distinct[r.Time] = true
	}
	if len(distinct) < 2 {
		t.Fatal("per-query noise should vary latencies across instances")
	}
}

func TestHelpers(t *testing.T) {
	recs := []*qpp.QueryRecord{
		{Template: 1}, {Template: 3}, {Template: 1}, {Template: 6},
	}
	if got := FilterTemplates(recs, []int{1}); len(got) != 2 {
		t.Fatalf("filter %d", len(got))
	}
	train, test := SplitLeaveTemplateOut(recs, 1)
	if len(train) != 2 || len(test) != 2 {
		t.Fatalf("split %d/%d", len(train), len(test))
	}
	labels := TemplateLabels(recs)
	if labels[0] != "t1" || labels[3] != "t6" {
		t.Fatalf("labels %v", labels)
	}
	tpls := TemplatesPresent(recs)
	if len(tpls) != 3 || tpls[0] != 1 || tpls[2] != 6 {
		t.Fatalf("templates %v", tpls)
	}
}

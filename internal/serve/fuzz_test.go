package serve

import (
	"encoding/json"
	"net/http"
	"testing"

	"qpp/internal/tpch"
)

// FuzzPredictRequest fuzzes the full /predict decode→plan→predict path
// with raw request bodies. The handler contract under arbitrary input:
// never panic, never 5xx — every body is answered with 200 or a
// structured 4xx JSON error.
func FuzzPredictRequest(f *testing.F) {
	// Seed corpus: a well-formed body for each of the 18 implemented
	// TPC-H templates...
	for _, tmpl := range tpch.Templates {
		qs, err := tpch.GenWorkload([]int{tmpl}, 1, 42)
		if err != nil {
			f.Fatal(err)
		}
		b, err := json.Marshal(PredictRequest{SQL: qs[0].SQL})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// ...plus malformed and adversarial bodies.
	for _, s := range []string{
		``,
		`{`,
		`null`,
		`[]`,
		`{"sql": null}`,
		`{"sql": 42}`,
		`{"sql": ""}`,
		`{"sql": "select"}`,
		`{"sql": "select * from"}`,
		`{"sql": "select * from nope"}`,
		`{"sql": "select from from where group by"}`,
		`{"sql": "select count(*) from lineitem; drop table lineitem"}`,
		`{"sql": "select * from lineitem where l_quantity < "}`,
		`{"sql": "   "}`,
		// Wrong-kind operands: bind errors, so 4xx.
		`{"sql": "select substring(c_phone from 'a' for 2) from customer"}`,
		`{"sql": "select substring(c_phone from 1.5 for 2) from customer"}`,
		`{"sql": "select extract(year from c_acctbal) from customer"}`,
		`{"sql": "select c_name from customer where c_acctbal like '1%'"}`,
	} {
		f.Add([]byte(s))
	}
	// Non-UTF-8 and control bytes embedded in an otherwise well-formed
	// body.
	f.Add(append([]byte(`{"sql": "select * from lineitem -- `), 0xff, 0xfe, 0x00, '"', '}'))

	// The 62-way cross join whose cost-model prediction overflows at the
	// scale factors qppserve runs at (and nearly does here).
	f.Add([]byte(predictBody(f, crossJoinSQL(62))))

	s := newTestServer(f, Options{})
	f.Fuzz(func(t *testing.T, body []byte) {
		w := do(s, http.MethodPost, "/predict", string(body))
		if w.Code != http.StatusOK && (w.Code < 400 || w.Code >= 500) {
			t.Fatalf("status %d for body %q (want 200 or 4xx): %s", w.Code, body, w.Body.String())
		}
		// Every answer is JSON: a PredictResult on 200, an ErrorBody on 4xx.
		if w.Code == http.StatusOK {
			var res PredictResult
			if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
				t.Fatalf("200 with non-JSON body %q: %v", w.Body.String(), err)
			}
			if res.ModelVersion == "" || len(res.Predictions) == 0 {
				t.Fatalf("200 with incomplete result: %s", w.Body.String())
			}
		} else {
			var eb ErrorBody
			if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Error == "" {
				t.Fatalf("%d without a structured error body: %q", w.Code, w.Body.String())
			}
		}
	})
}

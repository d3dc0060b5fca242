package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"qpp/internal/arena"
)

// decodeWithDecoder is how the handlers read a body before decodeBody:
// a json.Decoder over the capped body.
func decodeWithDecoder(w http.ResponseWriter, r *http.Request, v any) error {
	return json.NewDecoder(http.MaxBytesReader(w, r.Body, bodyCap)).Decode(v)
}

// TestDecodeBodyMatchesDecoder pins decodeBody to the Decoder it
// replaced: the same value and the same error text for well-formed
// bodies, every malformed seed of FuzzPredictRequest, trailing data,
// bare scalars, bodies at and over the cap, and a body whose read fails.
// The body is read into a request arena that is released, poisoned,
// before the values are compared: nothing decoded may refer to it.
func TestDecodeBodyMatchesDecoder(t *testing.T) {
	pool := &arena.Pool{Poison: poison}
	decodeInArena := func(w http.ResponseWriter, r *http.Request, v any) error {
		a := pool.Get()
		defer pool.Put(a)
		return decodeBody(a, w, r, v)
	}
	bodies := []string{
		``, ` `, `{`, `}`, `null`, `[]`, `{"sql": null}`, `{"sql": 42}`, `{"sql": ""}`,
		`{"sql": "select 1"}`, `{"sql": "select 1"} `, `{"sql": "select 1"}{"sql": "x"}`,
		`{"sql": "select 1"} garbage`, `{"sql": "select 1", "extra": [1, {"a": 2}]}`,
		`{"sql": "select 1"`, `{"sql": "sel`, `"select 1"`, `42`, `42 `, `4x`, `true`, `tru`,
		`{"SQL": "case-insensitive field"}`, `{"sql": "aé\ud800"}`, "{\"sql\": \"\xff\xfe\"}",
		`{"queries": [{"sql": "select 1"}, {"sql": 2}]}`,
		`{"sql": "` + strings.Repeat("x", bodyCap) + `"}`,
		`{"sql": "x"}` + strings.Repeat(" ", bodyCap),
		strings.Repeat(" ", bodyCap-2) + `{}`,
		strings.Repeat(" ", bodyCap-1) + `{}`,
		strings.Repeat("7", bodyCap+1),
	}
	type pair struct {
		Predict PredictRequest
		Batch   BatchRequest
	}
	decode := func(dec func(http.ResponseWriter, *http.Request, any) error, body string, chunked, failing bool) (pair, string) {
		var v pair
		var errs []string
		for _, into := range []any{&v.Predict, &v.Batch} {
			var rd io.Reader = strings.NewReader(body)
			if failing {
				rd = io.MultiReader(strings.NewReader(body), iotest.ErrReader(io.ErrClosedPipe))
			}
			r := httptest.NewRequest(http.MethodPost, "/predict", rd)
			if chunked || failing {
				r.ContentLength = -1
			}
			errs = append(errs, fmt.Sprint(dec(httptest.NewRecorder(), r, into)))
		}
		return v, strings.Join(errs, " | ")
	}
	for _, body := range bodies {
		for _, mode := range []struct{ chunked, failing bool }{{false, false}, {true, false}, {false, true}} {
			gotV, gotErr := decode(decodeInArena, body, mode.chunked, mode.failing)
			wantV, wantErr := decode(decodeWithDecoder, body, mode.chunked, mode.failing)
			if gotErr != wantErr || !reflect.DeepEqual(gotV, wantV) {
				short := body
				if len(short) > 60 {
					short = short[:60] + "..."
				}
				t.Errorf("body %q (%+v):\n got %+v, %s\nwant %+v, %s", short, mode, gotV, gotErr, wantV, wantErr)
			}
		}
	}
}

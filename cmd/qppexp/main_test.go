package main

import (
	"strings"
	"testing"
)

// TestSelectDrivers: -exp picks drivers in report order, "all" picks
// every one, and an unknown name is refused by name before any workload
// is built.
func TestSelectDrivers(t *testing.T) {
	names := func(ds []driver) string {
		var out []string
		for _, d := range ds {
			out = append(out, d.name)
		}
		return strings.Join(out, ",")
	}
	for exp, want := range map[string]string{
		"all":        "fig5,fig6,fig7,fig8,fig9,fig4",
		"fig6, fig5": "fig5,fig6",
		"fig4":       "fig4",
		"fig9,all":   "fig5,fig6,fig7,fig8,fig9,fig4",
		"fig5,fig5":  "fig5",
	} {
		got, err := selectDrivers(exp)
		if err != nil || names(got) != want {
			t.Errorf("selectDrivers(%q) = %s, %v; want %s", exp, names(got), err, want)
		}
	}
	for _, exp := range []string{"fig10", "fig5,fig10", "", "fig5,"} {
		got, err := selectDrivers(exp)
		if err == nil {
			t.Errorf("selectDrivers(%q) = %s, want an error", exp, names(got))
			continue
		}
		if bad := strings.TrimSpace(exp[strings.LastIndex(exp, ",")+1:]); !strings.Contains(err.Error(), `"`+bad+`"`) {
			t.Errorf("selectDrivers(%q): error %q does not name %q", exp, err, bad)
		}
	}
}

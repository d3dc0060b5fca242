package qpp

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestPersistedShape walks, by reflection, the JSON fields of every
// struct a snapshot document holds — modelsState and each mlearn model
// state under it — and compares them with persistedShape, the list kept
// beside FormatVersion. A persisted struct that gains, loses, renames or
// retypes a field fails here until the list is edited, and the list names
// the version it describes, so bumping one without the other fails too.
func TestPersistedShape(t *testing.T) {
	lines := []string{fmt.Sprintf("version %d", FormatVersion)}
	seen := map[reflect.Type]bool{}
	// typeName spells a field's type as JSON sees it — structs by name,
	// other named types by their kind — and lists each struct's fields
	// the first time it meets it.
	var typeName func(rt reflect.Type) string
	typeName = func(rt reflect.Type) string {
		switch rt.Kind() {
		case reflect.Pointer:
			return "*" + typeName(rt.Elem())
		case reflect.Slice:
			return "[]" + typeName(rt.Elem())
		case reflect.Map:
			return "map[" + typeName(rt.Key()) + "]" + typeName(rt.Elem())
		case reflect.Struct:
		default:
			return rt.Kind().String()
		}
		if !seen[rt] {
			seen[rt] = true
			at := len(lines)
			lines = append(lines, "")
			var fields []string
			for i := 0; i < rt.NumField(); i++ {
				f := rt.Field(i)
				name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
				if name == "" {
					name = f.Name
				}
				fields = append(fields, name+" "+typeName(f.Type))
			}
			lines[at] = rt.String() + "{" + strings.Join(fields, ", ") + "}"
		}
		return rt.String()
	}
	typeName(reflect.TypeOf(modelsState{}))
	if got := strings.Join(lines, "\n"); got != persistedShape {
		t.Errorf("the persisted structs read\n%s\nbut persistedShape lists\n%s\nA changed shape is a new format: bump FormatVersion and write the new shape beside it", got, persistedShape)
	}
}

package foo_test

import (
	"testing"

	"example.com/bridge/bar"
	"example.com/bridge/foo"
)

// TestBridge passes a key of foo's test variant through bar, which the
// go tool recompiles against that variant, and reads it back through the
// export_test.go bridge.
func TestBridge(t *testing.T) {
	if got := foo.ID(bar.Skip(foo.New(1))); got != 3 {
		t.Fatalf("id %d, want 3", got)
	}
}

// Package bar depends on foo, so go test recompiles it for foo's external
// test.
package bar

import "example.com/bridge/foo"

// Skip is the key two after k.
func Skip(k foo.Key) foo.Key { return k.Next().Next() }

package foo

// ID is the bridge the external test reads a key's id through.
func ID(k Key) int { return k.id }

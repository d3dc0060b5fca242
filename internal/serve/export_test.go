package serve

// Current returns the snapshot new requests would use.
func (s *Server) Current() *Snapshot { return s.snap.Load() }

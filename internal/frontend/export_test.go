package frontend

// SetDraining raises the drain flag with the listener still open: the
// window in which a connection is accepted after Shutdown has begun.
func (s *Server) SetDraining() { s.draining.Store(true) }

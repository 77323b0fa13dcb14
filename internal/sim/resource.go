package sim

// Server is a single FIFO service station: requests are serviced one at a
// time, each occupying the server for its service duration. It models
// serialization points such as a NIC, an RMA window's host port, or a memory
// controller. Waiting time under load emerges from the queue.
type Server struct {
	busyUntil Time
	busyTime  Time // cumulative busy (service) time, for utilization metrics
	served    int64
}

// ServeAsync reserves service time for a request arriving at now and
// returns the virtual time at which the request completes; the caller
// schedules its own continuation there. Requests are served in call order.
func (s *Server) ServeAsync(now Time, service Time) Time {
	if s.busyUntil < now {
		s.busyUntil = now
	}
	s.busyUntil += service
	s.busyTime += service
	s.served++
	return s.busyUntil
}

// BusyTime reports the cumulative service time performed by the server.
func (s *Server) BusyTime() Time { return s.busyTime }

// Served reports the number of completed service requests.
func (s *Server) Served() int64 { return s.served }

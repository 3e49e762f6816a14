package sim

// Resource models a serially-reusable hardware resource (a switch output
// port, a memory module's service port, a directory controller). Requests
// are served in arrival order; each occupies the resource for a fixed or
// per-request duration. Because the paper assumes infinite buffering at
// every switch (§5.2), a Resource never rejects work — it only delays it.
type Resource struct {
	free Time // instant the resource next becomes idle

	// Busy accumulates total occupied cycles, for utilization metrics.
	Busy Time
	// Waited accumulates total queueing delay imposed on requests.
	Waited Time
	// Served counts requests.
	Served uint64
}

// Acquire reserves the resource for hold cycles starting no earlier than
// `at`, and returns the time at which the request *completes* (queueing
// delay included). The caller is responsible for scheduling whatever happens
// at the returned instant.
func (r *Resource) Acquire(at, hold Time) Time {
	start := at
	if r.free > start {
		start = r.free
	}
	r.Waited += start - at
	r.Busy += hold
	r.Served++
	r.free = start + hold
	return r.free
}

// Reset clears both the reservation horizon and the statistics.
func (r *Resource) Reset() { *r = Resource{} }

// Utilization returns Busy divided by the elapsed horizon (0 if horizon is
// zero).
func (r *Resource) Utilization(horizon Time) float64 {
	if horizon == 0 {
		return 0
	}
	return float64(r.Busy) / float64(horizon)
}

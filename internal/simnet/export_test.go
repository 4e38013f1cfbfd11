package simnet

// SetParallelMinHops sets the hop threshold above which EngineWorkers = 0
// runs on several workers, and returns a function restoring the old one.
func SetParallelMinHops(hops int64) (restore func()) {
	old := parallelMinHops
	parallelMinHops = hops
	return func() { parallelMinHops = old }
}

// ArcState is one directed link's state: its transmitter reservation and
// the background busy period it last drew (zero when ρ = 0).
type ArcState struct {
	FreeAt, BusyStart, BusyEnd Time
}

// LinkState returns a snapshot of every arc's state, by arc id.
func (n *Network) LinkState() []ArcState {
	out := make([]ArcState, len(n.freeAt))
	for a := range out {
		out[a].FreeAt = n.freeAt[a]
		if n.bg != nil {
			out[a].BusyStart, out[a].BusyEnd = n.bg[a].busyStart, n.bg[a].busyEnd
		}
	}
	return out
}

// PlannedWorkers returns how many workers a run of specs with opts would
// drain on, without running it.
func (n *Network) PlannedWorkers(specs []PacketSpec, opts Options) (int, error) {
	sc := NewScratch()
	defer sc.release()
	if err := sc.st.prepare(n, specs, opts); err != nil {
		return 0, err
	}
	return sc.partition(), nil
}

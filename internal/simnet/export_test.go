package simnet

import "runtime"

// SetWidth lets every run that nothing else holds on one worker drain
// on up to k workers, whatever its size: it sets GOMAXPROCS to k and the
// hop threshold to 0, and returns a function restoring both.
func SetWidth(k int) (restore func()) {
	oldProcs, oldHops := runtime.GOMAXPROCS(k), parallelMinHops
	parallelMinHops = 0
	return func() {
		runtime.GOMAXPROCS(oldProcs)
		parallelMinHops = oldHops
	}
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

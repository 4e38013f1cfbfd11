package simnet

import "math/rand"

// splitmix64 is the finalizer of the SplitMix64 generator (Steele et al.,
// "Fast splittable pseudorandom number generators"): a full-avalanche
// bijection on 64-bit words, used to derive statistically independent
// per-arc RNG seeds from (Params.Seed, arc id).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// bgProcess models "normal network traffic" on one directed link as a
// renewal on/off process: busy periods of one packet time (μα) separated
// by idle periods drawn from an exponential distribution with mean chosen
// so the long-run busy fraction is ρ. The process is generated lazily and
// deterministically from the link's seeded RNG; queries must come with
// non-decreasing times, which the event loop guarantees.
type bgProcess struct {
	rng       *rand.Rand
	busyLen   float64 // μα
	idleMean  float64 // μα (1-ρ)/ρ
	busyStart Time    // start of the current/next busy period
	busyEnd   Time
}

func newBgProcess(rng *rand.Rand, p Params) bgProcess {
	b := bgProcess{
		rng:      rng,
		busyLen:  float64(p.PacketTime()),
		idleMean: float64(p.PacketTime()) * (1 - p.Rho) / p.Rho,
	}
	// Random initial phase: first busy period starts after one idle draw.
	b.busyStart = Time(b.rng.ExpFloat64() * b.idleMean)
	b.busyEnd = b.busyStart + Time(b.busyLen)
	return b
}

// advance generates busy periods until the current one ends at or after t.
func (b *bgProcess) advance(t Time) {
	for b.busyEnd <= t {
		idle := Time(b.rng.ExpFloat64() * b.idleMean)
		if idle < 1 {
			idle = 1
		}
		b.busyStart = b.busyEnd + idle
		b.busyEnd = b.busyStart + Time(b.busyLen)
	}
}

// freeFrom returns the earliest instant >= t at which the link is not
// occupied by background traffic, and whether t itself fell in a busy
// period. A transmission started at the returned time is assumed to hold
// the link, pushing subsequent background packets behind it (they are not
// separately accounted).
func (b *bgProcess) freeFrom(t Time) (Time, bool) {
	b.advance(t)
	if t >= b.busyStart && t < b.busyEnd {
		return b.busyEnd, true
	}
	return t, false
}

package transport

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBackoffJitterBounds checks every delay against the documented
// envelope: attempt k is uniform in [d·(1−J), d] with
// d = min(Base·Factor^k, Max).
func TestBackoffJitterBounds(t *testing.T) {
	cfg := BackoffConfig{
		Base: 10 * time.Millisecond, Max: 200 * time.Millisecond,
		Factor: 2, Jitter: 0.25, Seed: 7,
	}
	b := NewBackoff(cfg)
	d := float64(cfg.Base)
	for k := 0; k < 12; k++ {
		got := b.Next()
		lo := time.Duration(d * (1 - cfg.Jitter))
		hi := time.Duration(d)
		if got < lo || got > hi {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", k, got, lo, hi)
		}
		d *= cfg.Factor
		if d > float64(cfg.Max) {
			d = float64(cfg.Max)
		}
	}
}

// TestBackoffSaturatesAtMax: once the exponential passes Max, every
// delay stays within [Max·(1−J), Max] forever.
func TestBackoffSaturatesAtMax(t *testing.T) {
	cfg := BackoffConfig{
		Base: time.Millisecond, Max: 16 * time.Millisecond,
		Factor: 4, Jitter: 0.1, Seed: 3,
	}
	b := NewBackoff(cfg)
	for k := 0; k < 3; k++ {
		b.Next()
	}
	for k := 0; k < 50; k++ {
		got := b.Next()
		lo := time.Duration(float64(cfg.Max) * (1 - cfg.Jitter))
		if got < lo || got > cfg.Max {
			t.Fatalf("saturated attempt %d: delay %v outside [%v, %v]", k, got, lo, cfg.Max)
		}
	}
}

// TestBackoffDeterministicForSeed: two sequences under the same seed
// agree delay for delay; Reset rewinds the growth but not the RNG.
func TestBackoffDeterministicForSeed(t *testing.T) {
	cfg := BackoffConfig{Base: 5 * time.Millisecond, Max: time.Second, Factor: 2, Jitter: 0.5, Seed: 11}
	a, b := NewBackoff(cfg), NewBackoff(cfg)
	for k := 0; k < 20; k++ {
		if da, db := a.Next(), b.Next(); da != db {
			t.Fatalf("attempt %d: %v != %v under equal seeds", k, da, db)
		}
	}
	a.Reset()
	if d := a.Next(); d > cfg.Base {
		t.Fatalf("first delay after Reset = %v, want <= Base %v", d, cfg.Base)
	}
}

// TestBackoffNoJitter: with Jitter 0 the sequence is exactly
// Base·Factor^k capped at Max.
func TestBackoffNoJitter(t *testing.T) {
	b := NewBackoff(BackoffConfig{Base: 2 * time.Millisecond, Max: 16 * time.Millisecond, Factor: 2, Jitter: 0, Seed: 1})
	want := []time.Duration{2, 4, 8, 16, 16, 16}
	for k, w := range want {
		if got := b.Next(); got != w*time.Millisecond {
			t.Fatalf("attempt %d: %v, want %v", k, got, w*time.Millisecond)
		}
	}
}

// TestBreakerTransitions walks the full closed → open → half-open →
// closed cycle, and the half-open → open failure path, on a manual
// clock.
func TestBreakerTransitions(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	b := &Breaker{now: clock}

	if b.State() != BreakerClosed {
		t.Fatalf("initial state %v, want closed", b.State())
	}
	// Failures below the threshold keep it closed.
	for i := 1; i < breakerThreshold; i++ {
		b.Failure()
	}
	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatalf("state %v after %d/%d failures, want closed+allowing", b.State(), breakerThreshold-1, breakerThreshold)
	}
	// The threshold-th consecutive failure trips it.
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatalf("state %v after threshold failures, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker allowed traffic before cooldown")
	}
	if b.Admittable() {
		t.Fatal("open breaker admitted new traffic before cooldown")
	}
	// Cooldown not yet elapsed.
	now = now.Add(breakerCooldown - time.Millisecond)
	if b.Allow() {
		t.Fatal("open breaker allowed traffic 1ms early")
	}
	// Cooldown elapsed: senders may queue again (without stealing the
	// probe slot), and exactly one probe is admitted.
	now = now.Add(time.Millisecond)
	if !b.Admittable() {
		t.Fatal("cooldown elapsed but traffic still refused")
	}
	if b.State() != BreakerOpen {
		t.Fatal("Admittable changed breaker state")
	}
	if !b.Allow() {
		t.Fatal("cooldown elapsed but probe refused")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state %v during probe, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("second caller admitted during half-open probe")
	}
	// Probe failure re-opens immediately and restarts the cooldown.
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatalf("state %v after failed probe, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("re-opened breaker allowed traffic without a fresh cooldown")
	}
	now = now.Add(breakerCooldown)
	if !b.Allow() {
		t.Fatal("second probe refused after fresh cooldown")
	}
	// Probe success closes it and clears the failure count: the next
	// trip needs a full threshold of new failures.
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("state %v after successful probe, want closed", b.State())
	}
	for i := 1; i < breakerThreshold; i++ {
		b.Failure()
	}
	if b.State() != BreakerClosed {
		t.Fatalf("failure count not cleared on close: state %v after %d failures", b.State(), breakerThreshold-1)
	}
}

// TestBreakerStateStrings pins the operator-facing names.
func TestBreakerStateStrings(t *testing.T) {
	for s, want := range map[BreakerState]string{
		BreakerClosed:   "closed",
		BreakerOpen:     "open",
		BreakerHalfOpen: "half-open",
		BreakerState(9): "invalid",
	} {
		if s.String() != want {
			t.Fatalf("BreakerState(%d).String() = %q, want %q", s, s, want)
		}
	}
}

// TestBreakerConcurrentSingleProbe hammers one tripped breaker from
// many goroutines mixing Allow, the non-mutating Admittable poll, and
// outcome recording. The contract under contention: after the cooldown
// elapses, exactly ONE caller wins the half-open probe slot per
// open→half-open transition — concurrent Allow calls during the probe
// are refused — and Admittable never steals the slot. Run under -race
// this also proves the locking.
func TestBreakerConcurrentSingleProbe(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(0, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	b := &Breaker{now: clock}
	for i := 0; i < breakerThreshold; i++ {
		b.Failure()
	}
	if b.State() != BreakerOpen {
		t.Fatalf("breaker %v after %d failures, want open", b.State(), breakerThreshold)
	}

	const goroutines = 32
	for round := 0; round < 50; round++ {
		// Cooldown not yet elapsed: nobody gets in, Admittable agrees.
		var admitted atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if b.Admittable() {
					admitted.Add(1)
				}
				if b.Allow() {
					admitted.Add(1)
				}
			}()
		}
		wg.Wait()
		if admitted.Load() != 0 {
			t.Fatalf("round %d: %d callers admitted before cooldown", round, admitted.Load())
		}

		// Cooldown elapsed: every Admittable poll may say yes, but the
		// probe slot goes to exactly one Allow winner.
		advance(breakerCooldown)
		var wins atomic.Int64
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = b.Admittable() // non-mutating poll must not steal the slot
				if b.Allow() {
					wins.Add(1)
				}
				_ = b.Admittable()
			}()
		}
		wg.Wait()
		if wins.Load() != 1 {
			t.Fatalf("round %d: %d probe winners, want exactly 1", round, wins.Load())
		}
		if b.State() != BreakerHalfOpen {
			t.Fatalf("round %d: state %v after probe admission, want half-open", round, b.State())
		}
		// The losing probe re-opens the breaker for the next round.
		b.Failure()
		if b.State() != BreakerOpen {
			t.Fatalf("round %d: failed probe left state %v, want open", round, b.State())
		}
	}

	// A winning probe closes it for everyone.
	advance(breakerCooldown)
	if !b.Allow() {
		t.Fatal("post-cooldown probe refused")
	}
	b.Success()
	var wg sync.WaitGroup
	var refused atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !b.Allow() || !b.Admittable() {
				refused.Add(1)
			}
		}()
	}
	wg.Wait()
	if refused.Load() != 0 {
		t.Fatalf("%d callers refused on a closed breaker", refused.Load())
	}
}

package transport

import (
	"math/rand"
	"sync"
	"time"
)

// BackoffConfig shapes a jittered exponential backoff sequence. The
// zero value is not usable; call Defaulted or fill every field.
type BackoffConfig struct {
	Base   time.Duration // first delay
	Max    time.Duration // ceiling the sequence saturates at
	Factor float64       // multiplier between attempts, ≥ 1
	// Jitter is the fraction of each delay randomized away: attempt k
	// yields a delay uniform in [d·(1−Jitter), d] where
	// d = min(Base·Factor^k, Max). 0 disables jitter; must be < 1.
	Jitter float64
	Seed   int64 // randomness seed; 0 means unseeded (time-based)
}

// Defaulted fills zero fields with production defaults: 50ms base,
// 5s cap, ×2 growth, 20% jitter.
func (c BackoffConfig) Defaulted() BackoffConfig {
	if c.Base <= 0 {
		c.Base = 50 * time.Millisecond
	}
	if c.Max <= 0 {
		c.Max = 5 * time.Second
	}
	if c.Factor < 1 {
		c.Factor = 2
	}
	if c.Jitter < 0 || c.Jitter >= 1 {
		c.Jitter = 0.2
	}
	return c
}

// Delay is the one jittered exponential rule every retry sequence
// follows: the wait after k earlier retries (k <= 0 gives Base) is
// d = min(Base·Factor^k, Max), less d·Jitter·u. u, uniform in [0, 1),
// is the caller's draw, so a sequence that owns its random source and
// one that shares it (a pull planner's wants) time their waits alike.
func (c BackoffConfig) Delay(k int, u float64) time.Duration {
	d := float64(c.Base)
	for i := 0; i < k; i++ {
		d *= c.Factor
		if d >= float64(c.Max) {
			break
		}
	}
	if d > float64(c.Max) {
		d = float64(c.Max)
	}
	return time.Duration(d - d*c.Jitter*u)
}

// Rand returns the random source a sequence over c draws its jitter
// from: seeded by Seed, or by the clock when Seed is 0.
func (c BackoffConfig) Rand() *rand.Rand {
	seed := c.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return rand.New(rand.NewSource(seed))
}

// Backoff produces one peer's retry delays. Not safe for concurrent
// use; each retry loop owns its own.
type Backoff struct {
	cfg     BackoffConfig
	rng     *rand.Rand
	attempt int
}

// NewBackoff returns a backoff sequence over c (zero fields defaulted).
func NewBackoff(c BackoffConfig) *Backoff {
	c = c.Defaulted()
	return &Backoff{cfg: c, rng: c.Rand()}
}

// Next returns the delay before the next attempt and advances the
// sequence. Deterministic for a fixed Seed.
func (b *Backoff) Next() time.Duration {
	d := b.cfg.Delay(b.attempt, b.rng.Float64())
	b.attempt++
	return d
}

// Reset rewinds the sequence to the first delay after a success.
func (b *Backoff) Reset() { b.attempt = 0 }

// BreakerState is a circuit breaker's position.
type BreakerState int32

const (
	// BreakerClosed: traffic flows; failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: traffic is refused until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: one probe is in flight; its outcome decides
	// between closing and re-opening.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "invalid"
	}
}

// A breaker trips open after breakerThreshold consecutive failures and
// admits one half-open probe breakerCooldown later.
const (
	breakerThreshold = 5
	breakerCooldown  = 500 * time.Millisecond
)

// Breaker is a per-peer circuit breaker: after breakerThreshold
// consecutive failures it refuses traffic for breakerCooldown, then
// admits exactly one probe; the probe's outcome closes or re-opens it.
// Safe for concurrent use.
type Breaker struct {
	mu       sync.Mutex
	state    BreakerState
	failures int
	openedAt time.Time
	now      func() time.Time // test hook
}

// NewBreaker returns a closed breaker.
func NewBreaker() *Breaker { return &Breaker{now: time.Now} }

// Allow reports whether an attempt may proceed now. In the open state
// it returns false until the cooldown elapses, then transitions to
// half-open and admits exactly one caller; concurrent callers during
// the probe are refused.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) >= breakerCooldown {
			b.state = BreakerHalfOpen
			return true
		}
		return false
	default: // half-open: a probe is already in flight
		return false
	}
}

// Admittable reports whether new traffic should be accepted toward
// this peer: true when closed, when half-open (the in-flight probe may
// deliver it), or when open with the cooldown elapsed (the attempt
// becomes the probe). Unlike Allow it never changes state, so senders
// can poll it without stealing the probe slot from the dialer.
func (b *Breaker) Admittable() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen {
		return b.now().Sub(b.openedAt) >= breakerCooldown
	}
	return true
}

// Success records a successful attempt: closes the breaker and clears
// the failure count.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = BreakerClosed
	b.failures = 0
}

// Failure records a failed attempt. In half-open it re-opens
// immediately; in closed it trips once breakerThreshold consecutive
// failures accumulate.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.state = BreakerOpen
		b.openedAt = b.now()
		return
	}
	b.failures++
	if b.state == BreakerClosed && b.failures >= breakerThreshold {
		b.state = BreakerOpen
		b.openedAt = b.now()
	}
}

// State returns the breaker's current position (open reported as open
// even if the cooldown has elapsed — the transition happens in Allow).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

package repair

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"ihc/internal/topology"
)

func fixedDelay(d time.Duration) func(int) time.Duration {
	return func(int) time.Duration { return d }
}

func TestPlannerPullLifecycle(t *testing.T) {
	t0 := time.Unix(100, 0)
	p := NewPlanner(PullConfig{MaxAttempts: 3, Delay: fixedDelay(time.Second)})
	w := Want{Source: 5, Channel: 1}
	p.Expect(w, t0, []topology.Node{4, 6, 7})
	p.Expect(w, t0.Add(time.Hour), nil) // duplicate: ignored

	if p.Pending() != 1 || p.Done() {
		t.Fatalf("pending=%d done=%v after Expect", p.Pending(), p.Done())
	}
	// Not due before the deadline.
	if pulls := p.Due(t0.Add(-time.Millisecond), nil); len(pulls) != 0 {
		t.Fatalf("pulls before deadline: %v", pulls)
	}
	if at, ok := p.NextWake(); !ok || !at.Equal(t0) {
		t.Fatalf("NextWake = %v %v, want %v", at, ok, t0)
	}
	// First pull goes to the cycle predecessor, then the next-retry
	// time moves out by the backoff delay.
	pulls := p.Due(t0, nil)
	if len(pulls) != 1 || pulls[0].Provider != 4 || pulls[0].Attempt != 1 || pulls[0].Want != w {
		t.Fatalf("first pulls = %+v", pulls)
	}
	if pulls := p.Due(t0.Add(time.Second/2), nil); len(pulls) != 0 {
		t.Fatalf("pull fired before backoff elapsed: %v", pulls)
	}
	// A MISS reply halves the wait; rotation then advances to the next
	// provider.
	p.Miss(w, t0.Add(100*time.Millisecond))
	pulls = p.Due(t0.Add(600*time.Millisecond), nil)
	if len(pulls) != 1 || pulls[0].Provider != 6 || pulls[0].Attempt != 2 {
		t.Fatalf("post-MISS pulls = %+v", pulls)
	}
	// The copy arrives: satisfied, no further pulls, duplicate Got is
	// reported as such.
	if !p.Got(w) {
		t.Fatal("Got returned false for a pending want")
	}
	if p.Got(w) {
		t.Fatal("duplicate Got returned true")
	}
	if !p.Done() || p.Pending() != 0 {
		t.Fatalf("pending=%d done=%v after Got", p.Pending(), p.Done())
	}
	if pulls := p.Due(t0.Add(time.Hour), nil); len(pulls) != 0 {
		t.Fatalf("satisfied want still pulled: %v", pulls)
	}
	if _, ok := p.NextWake(); ok {
		t.Fatal("NextWake still scheduled after completion")
	}
}

func TestPlannerSkipsDownPeersAndExhausts(t *testing.T) {
	t0 := time.Unix(0, 0)
	p := NewPlanner(PullConfig{MaxAttempts: 3, Delay: fixedDelay(time.Second)})
	w := Want{Source: 2, Channel: 0}
	p.Expect(w, t0, []topology.Node{1, 3})

	// Provider 1's breaker is open: rotation lands on 3.
	down1 := func(v topology.Node) bool { return v == 1 }
	pulls := p.Due(t0, down1)
	if len(pulls) != 1 || pulls[0].Provider != 3 {
		t.Fatalf("pulls with 1 down = %+v", pulls)
	}
	// Everyone down: the attempt slot burns with no pull emitted.
	pulls = p.Due(t0.Add(time.Second), func(topology.Node) bool { return true })
	if len(pulls) != 0 {
		t.Fatalf("pulls with all peers down = %+v", pulls)
	}
	// Third (final) attempt fires, then the want is exhausted: no more
	// pulls, no wake, reported by Exhausted.
	pulls = p.Due(t0.Add(2*time.Second), nil)
	if len(pulls) != 1 || pulls[0].Attempt != 3 {
		t.Fatalf("final-attempt pulls = %+v", pulls)
	}
	if pulls := p.Due(t0.Add(time.Hour), nil); len(pulls) != 0 {
		t.Fatalf("exhausted want still pulled: %v", pulls)
	}
	if _, ok := p.NextWake(); ok {
		t.Fatal("NextWake scheduled for an exhausted want")
	}
	ex := p.Exhausted()
	if len(ex) != 1 || ex[0] != w {
		t.Fatalf("Exhausted = %v, want [%v]", ex, w)
	}
	if p.Done() {
		t.Fatal("exhausted want counted as done")
	}
	// A late copy still satisfies it.
	if !p.Got(w) {
		t.Fatal("late Got refused")
	}
	if len(p.Exhausted()) != 0 || !p.Done() {
		t.Fatal("late copy did not clear the exhausted state")
	}
}

// plannerAPI is the method set the differential test drives on both
// the heap planner and the scan-based reference below.
type plannerAPI interface {
	Expect(w Want, deadline time.Time, providers []topology.Node)
	Got(w Want) bool
	Miss(w Want, now time.Time)
	Due(now time.Time, peerDown func(topology.Node) bool) []Pull
	NextWake() (time.Time, bool)
	Pending() int
	Done() bool
	Terminal() bool
	Exhausted() []Want
}

// delayLog is a deterministic Delay that records its calls: the k-th
// call returns a duration hashed from (k, attempt), 0–7 ms, so equal
// call sequences get equal answers and ties between wants are common.
type delayLog struct{ calls []int }

func (d *delayLog) delay(attempt int) time.Duration {
	d.calls = append(d.calls, attempt)
	h := uint32(len(d.calls))*2654435761 ^ uint32(attempt)*40503
	return time.Duration(h>>29) * time.Millisecond
}

// runPlannerOps decodes ops into a sequence of planner calls, applies
// it to a Planner and to the reference, and fails at the first
// differing return value, counter, Exhausted list or Delay call.
func runPlannerOps(t *testing.T, ops []byte) {
	if len(ops) == 0 {
		return
	}
	maxAttempts := 1 + int(ops[0]%5)
	var dHeap, dRef delayLog
	planners := [2]plannerAPI{
		NewPlanner(PullConfig{MaxAttempts: maxAttempts, Delay: dHeap.delay}),
		newRefPlanner(PullConfig{MaxAttempts: maxAttempts, Delay: dRef.delay}),
	}
	now := time.Unix(1000, 0)
	for i := 1; i+1 < len(ops); i += 2 {
		op, arg := ops[i], ops[i+1]
		w := Want{Source: topology.Node(arg % 6), Channel: (arg / 6) % 3}
		var got [2]any
		switch op % 6 {
		case 0:
			deadline := now.Add(time.Duration(arg%8) * time.Millisecond)
			var providers []topology.Node
			for k := 0; k < int(op/6)%4; k++ {
				providers = append(providers, topology.Node((int(arg)+k)%5))
			}
			for k, p := range planners {
				p.Expect(w, deadline, providers)
				got[k] = nil
			}
		case 1:
			for k, p := range planners {
				got[k] = p.Got(w)
			}
		case 2:
			for _, p := range planners {
				p.Miss(w, now)
			}
		case 3:
			down := func(v topology.Node) bool { return op/6&(1<<(v%5)) != 0 }
			for k, p := range planners {
				got[k] = p.Due(now, down)
			}
		case 4:
			for k, p := range planners {
				at, ok := p.NextWake()
				got[k] = [2]any{at, ok}
			}
		case 5:
			now = now.Add(time.Duration(arg%8) * time.Millisecond)
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Fatalf("op %d (%d,%d): planner returned %v, reference %v", i/2, op, arg, got[0], got[1])
		}
		a, b := planners[0], planners[1]
		if a.Pending() != b.Pending() || a.Done() != b.Done() || a.Terminal() != b.Terminal() ||
			!reflect.DeepEqual(a.Exhausted(), b.Exhausted()) {
			t.Fatalf("op %d (%d,%d): planner pending=%d done=%v terminal=%v exhausted=%v, reference %d %v %v %v",
				i/2, op, arg, a.Pending(), a.Done(), a.Terminal(), a.Exhausted(),
				b.Pending(), b.Done(), b.Terminal(), b.Exhausted())
		}
		if !reflect.DeepEqual(dHeap.calls, dRef.calls) {
			t.Fatalf("op %d (%d,%d): Delay calls %v, reference %v", i/2, op, arg, dHeap.calls, dRef.calls)
		}
	}
}

// TestPlannerMatchesReference checks the heap planner against the
// scan-based one it replaced on seeded random call sequences: the same
// pulls in the same order, the same wake times and counters, and the
// same sequence of Delay calls.
func TestPlannerMatchesReference(t *testing.T) {
	const seeds, calls = 1000, 200
	ops := make([]byte, 1+2*calls)
	for seed := int64(0); seed < seeds; seed++ {
		rand.New(rand.NewSource(seed)).Read(ops)
		runPlannerOps(t, ops)
	}
}

// FuzzPlanner drives the same differential check from fuzzer bytes.
func FuzzPlanner(f *testing.F) {
	seed := make([]byte, 64)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)
	f.Add(binary.LittleEndian.AppendUint64([]byte{3}, 0x0300_0103_0504_0200))
	f.Fuzz(runPlannerOps)
}

// The scan-based planner the heap planner replaced, kept verbatim as
// the differential test's reference.

type refPullState struct {
	w         Want
	providers []topology.Node
	idx       int // rotation position
	attempts  int
	nextAt    time.Time
	satisfied bool
}

// refPlanner tracks every copy a node still expects and decides, given the
// current time, which NAKs to send to whom. Not safe for concurrent
// use; the node's event loop owns it.
type refPlanner struct {
	cfg     PullConfig
	wants   map[Want]*refPullState
	order   []*refPullState // insertion order, for deterministic emission
	pending int
}

// newRefPlanner returns an empty planner.
func newRefPlanner(cfg PullConfig) *refPlanner {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 12
	}
	if cfg.Delay == nil {
		panic("repair: PullConfig.Delay is required")
	}
	return &refPlanner{cfg: cfg, wants: make(map[Want]*refPullState)}
}

// Expect registers a copy the node is owed. deadline is when the
// schedule's closed form (stage start + hops·per-hop latency + slack)
// says it should have arrived; the first pull fires then. providers is
// the rotation order, normally the cycle predecessor followed by the
// node's remaining graph neighbors.
func (p *refPlanner) Expect(w Want, deadline time.Time, providers []topology.Node) {
	if _, dup := p.wants[w]; dup {
		return
	}
	st := &refPullState{w: w, providers: providers, nextAt: deadline}
	p.wants[w] = st
	p.order = append(p.order, st)
	p.pending++
}

// Got marks a copy received. Reports whether it was still pending (the
// first copy; duplicates return false).
func (p *refPlanner) Got(w Want) bool {
	st, ok := p.wants[w]
	if !ok || st.satisfied {
		return false
	}
	st.satisfied = true
	p.pending--
	return true
}

// Miss records a provider answering "I don't hold that copy either":
// rotation has already advanced past it, so the only adjustment is to
// retry sooner than the full deadline-miss backoff would.
func (p *refPlanner) Miss(w Want, now time.Time) {
	st, ok := p.wants[w]
	if !ok || st.satisfied || st.attempts >= p.cfg.MaxAttempts {
		return
	}
	next := now.Add(p.cfg.Delay(st.attempts) / 2)
	if next.Before(st.nextAt) {
		st.nextAt = next
	}
}

// Due returns the pulls whose time has come, advancing each want's
// rotation, attempt count, and next-retry time. peerDown (optional)
// lets the rotation skip providers whose circuit breakers are open; if
// every provider is down the want just waits out its backoff.
func (p *refPlanner) Due(now time.Time, peerDown func(topology.Node) bool) []Pull {
	var out []Pull
	for _, st := range p.order {
		if st.satisfied || st.attempts >= p.cfg.MaxAttempts || now.Before(st.nextAt) {
			continue
		}
		provider, ok := p.pickProvider(st, peerDown)
		st.attempts++
		st.nextAt = now.Add(p.cfg.Delay(st.attempts))
		if !ok {
			continue // all providers down; burn the attempt slot and wait
		}
		out = append(out, Pull{Want: st.w, Provider: provider, Attempt: st.attempts})
	}
	return out
}

func (p *refPlanner) pickProvider(st *refPullState, peerDown func(topology.Node) bool) (topology.Node, bool) {
	for i := 0; i < len(st.providers); i++ {
		cand := st.providers[st.idx%len(st.providers)]
		st.idx++
		if peerDown == nil || !peerDown(cand) {
			return cand, true
		}
	}
	return 0, false
}

// NextWake returns the earliest time any unsatisfied, unexhausted want
// becomes due. ok is false when nothing is left to do.
func (p *refPlanner) NextWake() (at time.Time, ok bool) {
	for _, st := range p.order {
		if st.satisfied || st.attempts >= p.cfg.MaxAttempts {
			continue
		}
		if !ok || st.nextAt.Before(at) {
			at, ok = st.nextAt, true
		}
	}
	return at, ok
}

// Pending returns how many expected copies are still missing.
func (p *refPlanner) Pending() int { return p.pending }

// Done reports whether every expected copy has arrived.
func (p *refPlanner) Done() bool { return p.pending == 0 }

// Terminal reports whether the planner has no live work left: every
// expected copy has either arrived or burned its full attempt budget.
// Done() distinguishes the happy case; Terminal && !Done means the
// round ends in an Exhausted verdict. A late Got on an exhausted want
// still counts it satisfied, so a terminal-failed round can be revived
// by an unsolicited copy (a rejoining node's late injection) as long
// as the caller keeps feeding the planner.
func (p *refPlanner) Terminal() bool {
	return p.pending == 0 || p.pending <= len(p.Exhausted())
}

// Exhausted lists wants that burned MaxAttempts without a copy
// arriving — the node's final verdict will fail on these.
func (p *refPlanner) Exhausted() []Want {
	var out []Want
	for _, st := range p.order {
		if !st.satisfied && st.attempts >= p.cfg.MaxAttempts {
			out = append(out, st.w)
		}
	}
	return out
}

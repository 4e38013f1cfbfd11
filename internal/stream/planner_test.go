package stream

import (
	"cmp"
	"encoding/binary"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"ihc/internal/topology"
	"ihc/internal/transport"
)

// doubling is a jitter-free profile: waits of 1s, 2s, then 4s.
var doubling = transport.BackoffConfig{Base: time.Second, Max: 4 * time.Second, Factor: 2}

func TestPlannerPullLifecycle(t *testing.T) {
	t0 := time.Unix(100, 0)
	p := newPlanner(8, 3, doubling)
	const w = 5
	p.expect(w, t0, []topology.Node{4, 6, 7})
	p.expect(w, t0.Add(time.Hour), nil) // duplicate: ignored

	if p.pending != 1 || p.done() {
		t.Fatalf("pending=%d done=%v after expect", p.pending, p.done())
	}
	// Not due before the deadline.
	if pulls := p.due(t0.Add(-time.Millisecond), nil); len(pulls) != 0 {
		t.Fatalf("pulls before deadline: %v", pulls)
	}
	if at, ok := p.nextWake(); !ok || !at.Equal(t0) {
		t.Fatalf("nextWake = %v %v, want %v", at, ok, t0)
	}
	// First pull goes to the cycle predecessor, then the next-retry
	// time moves out by the profile's first wait, Base.
	pulls := p.due(t0, nil)
	if len(pulls) != 1 || pulls[0].provider != 4 || pulls[0].slot != w || p.slots[w].attempts != 1 {
		t.Fatalf("first pulls = %+v", pulls)
	}
	if at, _ := p.nextWake(); !at.Equal(t0.Add(time.Second)) {
		t.Fatalf("retry after the first pull due at %v, want Base later", at.Sub(t0))
	}
	// A MISS reply halves the wait; rotation then advances to the next
	// provider.
	p.miss(w, t0.Add(100*time.Millisecond))
	if at, _ := p.nextWake(); !at.Equal(t0.Add(600 * time.Millisecond)) {
		t.Fatalf("retry after a MISS at 100ms due at %v, want 600ms", at.Sub(t0))
	}
	pulls = p.due(t0.Add(600*time.Millisecond), nil)
	if len(pulls) != 1 || pulls[0].provider != 6 || p.slots[w].attempts != 2 {
		t.Fatalf("post-MISS pulls = %+v", pulls)
	}
	// The second pull's wait is the profile's second, Base·Factor.
	if at, _ := p.nextWake(); !at.Equal(t0.Add(2600 * time.Millisecond)) {
		t.Fatalf("retry after the second pull due at %v, want 2.6s", at.Sub(t0))
	}
	// The copy arrives: satisfied, no further pulls, duplicate got is
	// reported as such.
	if !p.got(w) {
		t.Fatal("got returned false for a pending copy")
	}
	if p.got(w) {
		t.Fatal("duplicate got returned true")
	}
	if !p.done() || p.pending != 0 {
		t.Fatalf("pending=%d done=%v after got", p.pending, p.done())
	}
	if pulls := p.due(t0.Add(time.Hour), nil); len(pulls) != 0 {
		t.Fatalf("satisfied copy still pulled: %v", pulls)
	}
	if _, ok := p.nextWake(); ok {
		t.Fatal("nextWake still scheduled after completion")
	}
}

func TestPlannerSkipsDownPeersAndExhausts(t *testing.T) {
	t0 := time.Unix(0, 0)
	p := newPlanner(8, 3, doubling)
	const w = 2
	p.expect(w, t0, []topology.Node{1, 3})

	// Provider 1's breaker is open: rotation lands on 3.
	down1 := func(v topology.Node) bool { return v == 1 }
	pulls := p.due(t0, down1)
	if len(pulls) != 1 || pulls[0].provider != 3 {
		t.Fatalf("pulls with 1 down = %+v", pulls)
	}
	// Everyone down: the attempt slot burns with no pull emitted.
	pulls = p.due(t0.Add(time.Second), func(topology.Node) bool { return true })
	if len(pulls) != 0 {
		t.Fatalf("pulls with all peers down = %+v", pulls)
	}
	// Third (final) attempt fires, then the copy is exhausted: no more
	// pulls, no wake, listed as exhausted.
	pulls = p.due(t0.Add(3*time.Second), nil)
	if len(pulls) != 1 || p.slots[w].attempts != 3 {
		t.Fatalf("final-attempt pulls = %+v", pulls)
	}
	if pulls := p.due(t0.Add(time.Hour), nil); len(pulls) != 0 {
		t.Fatalf("exhausted copy still pulled: %v", pulls)
	}
	if _, ok := p.nextWake(); ok {
		t.Fatal("nextWake scheduled for an exhausted copy")
	}
	ex := p.exhaustedSlots()
	if len(ex) != 1 || ex[0] != w {
		t.Fatalf("exhausted = %v, want [%v]", ex, w)
	}
	if p.done() || !p.terminal() {
		t.Fatalf("exhausted copy: done=%v terminal=%v, want false, true", p.done(), p.terminal())
	}
	// A late copy still satisfies it.
	if !p.got(w) {
		t.Fatal("late got refused")
	}
	if len(p.exhaustedSlots()) != 0 || !p.done() {
		t.Fatal("late copy did not clear the exhausted state")
	}
}

// BenchmarkPlannerEpoch is one Q5 epoch of the pull planner alone, on
// the default pull profile: it expects every copy node 0 is owed
// (31 sources × γ = 5 channels), pulls them all in one due round and
// marks each one got.
func BenchmarkPlannerEpoch(b *testing.B) {
	g := topology.MustHypercube(5)
	nbs := g.Neighbors(0)
	rotations := make([][]topology.Node, len(nbs))
	for j := range nbs {
		rotations[j] = append(append([]topology.Node(nil), nbs[j:]...), nbs[:j]...)
	}
	retry := Config{}.Defaulted().Retry
	retry.Seed = 1
	t0 := time.Unix(1000, 0)
	gamma := len(nbs)
	want := (g.N() - 1) * gamma
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := newPlanner(g.N()*gamma, maxAttempts, retry)
		for j, rot := range rotations {
			for s := 1; s < g.N(); s++ {
				p.expect(s*gamma+j, t0, rot)
			}
		}
		pulls := p.due(t0, nil)
		if len(pulls) != want {
			b.Fatalf("%d pulls, want %d", len(pulls), want)
		}
		for _, pl := range pulls {
			p.got(pl.slot)
		}
		if !p.done() {
			b.Fatal("epoch not done after every copy arrived")
		}
	}
}

// plannerState is what the differential test compares after every
// call: the counters and verdicts, the exhausted slots in insertion
// order, and every expected slot's attempt count and next pull time.
type plannerState struct {
	Pending        int
	Done, Terminal bool
	Exhausted      []int
	Attempts       map[int]int
	RetryAt        map[int]time.Time
}

// plannerAPI is the method set the differential test drives on both
// the heap planner and the scan-based reference below.
type plannerAPI interface {
	expect(slot int, deadline time.Time, providers []topology.Node)
	got(slot int) bool
	miss(slot int, now time.Time)
	due(now time.Time, peerDown func(topology.Node) bool) []pull
	nextWake() (time.Time, bool)
	state() plannerState
}

// exhaustedSlots lists, in insertion order, the slots whose copies
// burned maxAttempts without arriving.
func (p *planner) exhaustedSlots() []int {
	var out []int
	for s, st := range p.slots {
		if st.expected && !st.satisfied && st.attempts >= p.maxAttempts {
			out = append(out, s)
		}
	}
	slices.SortFunc(out, func(a, b int) int { return cmp.Compare(p.slots[a].seq, p.slots[b].seq) })
	return out
}

func (p *planner) state() plannerState {
	s := plannerState{
		Pending: p.pending, Done: p.done(), Terminal: p.terminal(), Exhausted: p.exhaustedSlots(),
		Attempts: map[int]int{}, RetryAt: map[int]time.Time{},
	}
	for slot, st := range p.slots {
		if st.expected {
			s.Attempts[slot], s.RetryAt[slot] = st.attempts, st.nextAt
		}
	}
	return s
}

// runPlannerOps decodes ops into a sequence of planner calls over the
// 18 slots of a 6-source, γ = 3 store, applies it to a planner and to
// the reference, both built from one retry profile, and fails at the
// first differing return value, counter, exhausted list, attempt count
// or retry time. The first byte picks the attempt budget and whether
// the profile jitters: without jitter every wait is a whole number of
// milliseconds, so ties between copies are common.
func runPlannerOps(t *testing.T, ops []byte) {
	if len(ops) == 0 {
		return
	}
	budget := 1 + int(ops[0]%5)
	retry := transport.BackoffConfig{Base: time.Millisecond, Max: 8 * time.Millisecond, Factor: 2, Seed: int64(ops[0]) + 1}
	if ops[0]/5%2 == 1 {
		retry.Jitter = 0.5
	}
	const sources, gamma = 6, 3
	planners := [2]plannerAPI{newPlanner(sources*gamma, budget, retry), newRefPlanner(budget, retry)}
	now := time.Unix(1000, 0)
	for i := 1; i+1 < len(ops); i += 2 {
		op, arg := ops[i], ops[i+1]
		w := int(arg%sources)*gamma + int(arg/sources%gamma)
		var got [2]any
		switch op % 6 {
		case 0:
			deadline := now.Add(time.Duration(arg%8) * time.Millisecond)
			var providers []topology.Node
			for k := 0; k < int(op/6)%4; k++ {
				providers = append(providers, topology.Node((int(arg)+k)%5))
			}
			for k, p := range planners {
				p.expect(w, deadline, providers)
				got[k] = nil
			}
		case 1:
			for k, p := range planners {
				got[k] = p.got(w)
			}
		case 2:
			for _, p := range planners {
				p.miss(w, now)
			}
		case 3:
			down := func(v topology.Node) bool { return op/6&(1<<(v%5)) != 0 }
			for k, p := range planners {
				got[k] = append([]pull(nil), p.due(now, down)...) // an empty result as nil
			}
		case 4:
			for k, p := range planners {
				at, ok := p.nextWake()
				got[k] = [2]any{at, ok}
			}
		case 5:
			now = now.Add(time.Duration(arg%8) * time.Millisecond)
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Fatalf("op %d (%d,%d): planner returned %v, reference %v", i/2, op, arg, got[0], got[1])
		}
		if a, b := planners[0].state(), planners[1].state(); !reflect.DeepEqual(a, b) {
			t.Fatalf("op %d (%d,%d): planner state %+v, reference %+v", i/2, op, arg, a, b)
		}
	}
}

// TestPlannerMatchesReference checks the heap planner against the
// scan-based one it replaced on seeded random call sequences: the same
// pulls in the same order, the same wake times and counters, and the
// same attempt count and retry time for every want.
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
	f.Add(binary.LittleEndian.AppendUint64([]byte{8}, 0x0300_0103_0504_0200))
	f.Fuzz(runPlannerOps)
}

// The scan-based planner the heap planner replaced, kept as the
// differential test's reference, with the same timing rule.

type refPullState struct {
	slot      int
	providers []topology.Node
	idx       int // rotation position
	attempts  int
	nextAt    time.Time
	satisfied bool
}

type refPlanner struct {
	maxAttempts int
	retry       transport.BackoffConfig
	rng         *rand.Rand
	wants       map[int]*refPullState
	order       []*refPullState // insertion order, for deterministic emission
	pending     int
}

func newRefPlanner(maxAttempts int, retry transport.BackoffConfig) *refPlanner {
	return &refPlanner{maxAttempts: maxAttempts, retry: retry, rng: retry.Rand(), wants: make(map[int]*refPullState)}
}

func (p *refPlanner) wait(st *refPullState) time.Duration {
	return p.retry.Delay(st.attempts-1, p.rng.Float64())
}

func (p *refPlanner) expect(w int, deadline time.Time, providers []topology.Node) {
	if _, dup := p.wants[w]; dup {
		return
	}
	st := &refPullState{slot: w, providers: providers, nextAt: deadline}
	p.wants[w] = st
	p.order = append(p.order, st)
	p.pending++
}

func (p *refPlanner) got(w int) bool {
	st, ok := p.wants[w]
	if !ok || st.satisfied {
		return false
	}
	st.satisfied = true
	p.pending--
	return true
}

func (p *refPlanner) miss(w int, now time.Time) {
	st, ok := p.wants[w]
	if !ok || st.satisfied || st.attempts >= p.maxAttempts {
		return
	}
	next := now.Add(p.wait(st) / 2)
	if next.Before(st.nextAt) {
		st.nextAt = next
	}
}

func (p *refPlanner) due(now time.Time, peerDown func(topology.Node) bool) []pull {
	var out []pull
	for _, st := range p.order {
		if st.satisfied || st.attempts >= p.maxAttempts || now.Before(st.nextAt) {
			continue
		}
		provider, ok := p.pickProvider(st, peerDown)
		st.attempts++
		st.nextAt = now.Add(p.wait(st))
		if !ok {
			continue // all providers down; burn the attempt slot and wait
		}
		out = append(out, pull{slot: st.slot, provider: provider})
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

func (p *refPlanner) nextWake() (at time.Time, ok bool) {
	for _, st := range p.order {
		if st.satisfied || st.attempts >= p.maxAttempts {
			continue
		}
		if !ok || st.nextAt.Before(at) {
			at, ok = st.nextAt, true
		}
	}
	return at, ok
}

func (p *refPlanner) exhaustedSlots() []int {
	var out []int
	for _, st := range p.order {
		if !st.satisfied && st.attempts >= p.maxAttempts {
			out = append(out, st.slot)
		}
	}
	return out
}

func (p *refPlanner) state() plannerState {
	s := plannerState{
		Pending: p.pending, Done: p.pending == 0,
		Terminal:  p.pending == 0 || p.pending <= len(p.exhaustedSlots()),
		Exhausted: p.exhaustedSlots(), Attempts: map[int]int{}, RetryAt: map[int]time.Time{},
	}
	for w, st := range p.wants {
		s.Attempts[w], s.RetryAt[w] = st.attempts, st.nextAt
	}
	return s
}

package frs

import (
	"testing"
	"testing/quick"

	"ihc/internal/model"
	"ihc/internal/simnet"
	"ihc/internal/topology"
)

var p = simnet.Params{TauS: 100, Alpha: 20, Mu: 2, D: 37}

func TestStepLengths(t *testing.T) {
	// Q4: 1, 1, 2, 4, 7 — summing to N-1 = 15.
	got := StepLengths(4)
	want := []int{1, 1, 2, 4, 7}
	if len(got) != len(want) {
		t.Fatalf("lengths = %v", got)
	}
	sum := 0
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("lengths = %v, want %v", got, want)
		}
		sum += got[i]
	}
	if sum != 15 {
		t.Fatalf("sum = %d", sum)
	}
	for m := 2; m <= 10; m++ {
		sum := 0
		for _, l := range StepLengths(m) {
			sum += l
		}
		if sum != (1<<m)-1 {
			t.Fatalf("Q%d lengths sum %d != N-1", m, sum)
		}
	}
}

func TestContentSizesMatchStepLengths(t *testing.T) {
	const m = 4
	lengths := StepLengths(m)
	for k := 1; k <= m+1; k++ {
		for _, v := range []topology.Node{0, 7, 12} {
			for d := 0; d < m; d++ {
				c, err := Content(m, k, v, d)
				if err != nil {
					t.Fatal(err)
				}
				if got := len(c); got != lengths[k-1] {
					t.Fatalf("step %d link (%d,dir %d): content %d, want %d", k, v, d, got, lengths[k-1])
				}
			}
		}
	}
}

func TestContentStepOne(t *testing.T) {
	// Step 1: each link carries exactly its sender's own message.
	c, err := Content(4, 1, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(c) != 1 || c[0] != 9 {
		t.Fatalf("step-1 content = %v", c)
	}
}

func TestContentRejectsBadInput(t *testing.T) {
	if _, err := Content(4, 6, 0, 0); err == nil {
		t.Fatal("no error on bad step")
	}
	if _, err := Content(4, 0, 0, 0); err == nil {
		t.Fatal("no error on step 0")
	}
	if _, err := Content(0, 1, 0, 0); err == nil {
		t.Fatal("no error on bad dimension")
	}
}

// The fundamental FRS delivery property: every node receives exactly γ
// copies of every other node's message.
func TestCopiesGammaPerPair(t *testing.T) {
	for _, m := range []int{2, 3, 4, 5} {
		if err := Copies(m).VerifyATA(m); err != nil {
			t.Fatalf("Q%d: %v", m, err)
		}
	}
}

// Simulated execution time equals the Table II closed form exactly, with
// 100% link utilization and no contention (lock-step merges prevent it).
func TestRunMatchesTableII(t *testing.T) {
	for _, m := range []int{2, 3, 4, 5, 6} {
		res, err := Run(m, p, m <= 4)
		if err != nil {
			t.Fatal(err)
		}
		n := 1 << m
		want := model.FRSBest(p, n)
		if res.Finish != want {
			t.Fatalf("Q%d: finish = %d, want %d", m, res.Finish, want)
		}
		if res.Contentions != 0 {
			t.Fatalf("Q%d: %d contentions", m, res.Contentions)
		}
		if res.Injections != (m+1)*n*m {
			t.Fatalf("Q%d: injections = %d", m, res.Injections)
		}
		// 100% utilization: every link busy the whole time except the
		// γ+1 startups: LinkBusy = links * (finish - (γ+1)τ_S).
		links := simnet.Time(2 * topology.MustHypercube(m).M())
		wantBusy := links * (res.Finish - simnet.Time(m+1)*p.TauS)
		if res.LinkBusy != wantBusy {
			t.Fatalf("Q%d: link busy = %d, want %d", m, res.LinkBusy, wantBusy)
		}
		if m <= 4 {
			if err := res.Copies.VerifyATA(m); err != nil {
				t.Fatalf("Q%d: %v", m, err)
			}
		}
	}
}

// FRS under saturation is modeled analytically (Table IV): its worst case
// only adds D per step. Verify the model ordering against IHC's.
func TestWorstCaseOrderingVsIHC(t *testing.T) {
	for _, m := range []int{4, 6, 8, 10} {
		n := 1 << m
		frsW := model.FRSWorst(p, n)
		ihcW := model.IHCWorst(p, n, 2)
		if frsW >= ihcW {
			t.Fatalf("Q%d: FRS worst %d not faster than IHC worst %d", m, frsW, ihcW)
		}
		// But in the dedicated network IHC wins.
		if model.IHCBest(p, n, 2) >= model.FRSBest(p, n) {
			t.Fatalf("Q%d: IHC best not faster than FRS best", m)
		}
	}
}

// Property: content translation symmetry — the content of link (v, v^2^d)
// equals the content of link (0, 2^d) shifted by v.
func TestQuickContentTranslationInvariance(t *testing.T) {
	const m = 4
	f := func(vRaw, kRaw, dRaw uint8) bool {
		v := topology.Node(vRaw % 16)
		k := int(kRaw)%(m+1) + 1
		d := int(dRaw) % m
		base, errB := Content(m, k, 0, d)
		shifted, errS := Content(m, k, v, d)
		if errB != nil || errS != nil {
			return false
		}
		if len(base) != len(shifted) {
			return false
		}
		set := map[topology.Node]bool{}
		for _, s := range shifted {
			set[s] = true
		}
		for _, s := range base {
			if !set[v^s] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

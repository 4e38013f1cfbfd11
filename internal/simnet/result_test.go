package simnet

import (
	"reflect"
	"slices"
	"testing"
)

// TestResultMergeCoversEveryCounter sets every field of two Results to
// distinct values by reflection and checks that Merge sums each counter
// and keeps the later Finish, in both directions: a counter added to
// Result later cannot be left out of Merge, and so cannot be dropped by
// one of the callers that chain runs.
func TestResultMergeCoversEveryCounter(t *testing.T) {
	var a, b Result
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	typ := va.Type()
	for i := 0; i < typ.NumField(); i++ {
		if k := typ.Field(i).Type.Kind(); k < reflect.Int || k > reflect.Int64 {
			t.Fatalf("Result.%s is a %s: Merge and this test know only integer counters", typ.Field(i).Name, k)
		}
		va.Field(i).SetInt(int64(10 + i))
		vb.Field(i).SetInt(int64(1000 + 3*i))
	}
	for _, order := range [][2]Result{{a, b}, {b, a}} {
		got, other := order[0], order[1]
		got.Merge(&other)
		vg := reflect.ValueOf(got)
		for i := 0; i < typ.NumField(); i++ {
			x, y := va.Field(i).Int(), vb.Field(i).Int()
			want := x + y
			if typ.Field(i).Name == "Finish" {
				want = max(x, y)
			}
			if g := vg.Field(i).Int(); g != want {
				t.Errorf("Merge of %d and %d left Result.%s = %d, want %d", x, y, typ.Field(i).Name, g, want)
			}
		}
	}
}

// TestSinksAccumulateAcrossRuns chains two runs on one Network into one
// copy matrix, one ledger and (on one worker) one delivery log, and
// checks the sinks end up holding exactly each run's own sinks merged:
// the engine only adds to a sink. Above one worker the extra workers'
// private matrices and ledgers merge into sinks that already hold the
// first run's counts.
func TestSinksAccumulateAcrossRuns(t *testing.T) {
	g, specs := pipelineSpecs(32)
	specs = mirrored(32, specs)
	p := Params{TauS: 100, Alpha: 20, Mu: 2, D: 37}
	later := func(start Time) []PacketSpec {
		out := slices.Clone(specs)
		for i := range out {
			out[i].ID.Seq = 1
			out[i].Inject = start
		}
		return out
	}
	// chain runs both broadcasts on a fresh network; sinks returns the
	// options of the i-th run.
	chain := func(sinks func(i int) Options) [2]Result {
		net, err := New(g, p)
		if err != nil {
			t.Fatal(err)
		}
		var out [2]Result
		run := specs
		for i := range out {
			r, err := net.Run(run, sinks(i))
			if err != nil {
				t.Fatal(err)
			}
			out[i] = *r
			run = later(r.Finish)
		}
		return out
	}
	for _, w := range testWidths {
		restore := SetWidth(w)
		copies, ledger := NewCopyMatrix(g.N()), NewCopyLedger(g.N())
		var log []Delivery
		shared := Options{Copies: copies, Ledger: ledger}
		if w == 1 {
			shared.Log = &log
		}
		got := chain(func(int) Options { return shared })

		own := [2]Options{}
		logs := [2][]Delivery{}
		for i := range own {
			own[i] = Options{Copies: NewCopyMatrix(g.N()), Ledger: NewCopyLedger(g.N())}
			if w == 1 {
				own[i].Log = &logs[i]
			}
		}
		want := chain(func(i int) Options { return own[i] })
		restore()

		if got != want {
			t.Errorf("width %d: chained counters %+v, separate runs %+v", w, got, want)
		}
		wantCopies, wantLedger := own[0].Copies, own[0].Ledger
		wantCopies.Merge(own[1].Copies)
		wantLedger.Merge(own[1].Ledger)
		if !reflect.DeepEqual(copies, wantCopies) {
			t.Errorf("width %d: shared copy matrix differs from the runs' own matrices merged", w)
		}
		if !reflect.DeepEqual(ledger, wantLedger) {
			t.Errorf("width %d: shared ledger differs from the runs' own ledgers merged", w)
		}
		if err := copies.VerifyATA(0); err == nil {
			t.Errorf("width %d: shared copy matrix is empty", w)
		}
		if wantLog := append(logs[0], logs[1]...); !slices.Equal(log, wantLog) {
			t.Errorf("width %d: shared log of %d deliveries differs from the runs' own logs (%d) appended",
				w, len(log), len(wantLog))
		}
	}
}

// TestScratchDropsSinksAfterRun checks that a finished run leaves no
// caller sink or hook in its Scratch, on worker 0 or an extra worker: a
// pooled Scratch outlives the run, and a Log left in it kept the last
// run's whole delivery log alive.
func TestScratchDropsSinksAfterRun(t *testing.T) {
	g, specs := pipelineSpecs(16)
	specs = mirrored(16, specs)
	sc := NewScratch()
	var log []Delivery
	for _, run := range []struct {
		width int
		opts  Options
	}{
		{1, Options{Log: &log, Observe: hopTrace{}, Copies: NewCopyMatrix(g.N())}},
		{2, Options{Copies: NewCopyMatrix(g.N()), Ledger: NewCopyLedger(g.N())}},
	} {
		restore := SetWidth(run.width)
		net, err := New(g, Params{TauS: 100, Alpha: 20, Mu: 2, D: 37})
		if err == nil {
			_, err = net.RunScratch(specs, run.opts, sc)
		}
		restore()
		if err != nil {
			t.Fatal(err)
		}
		states := []*runState{&sc.st}
		for _, w := range sc.workers {
			states = append(states, &w.st)
		}
		for i, st := range states {
			if !reflect.ValueOf(st.opts).IsZero() || st.copies != nil || st.ledger != nil {
				t.Errorf("width %d: worker %d still holds the run's options or sinks after the run", run.width, i)
			}
		}
	}
	if len(sc.workers) == 0 {
		t.Fatal("the width-2 run planned no extra worker")
	}
}

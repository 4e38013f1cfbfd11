package harness

import (
	"strings"
	"testing"

	"ihc/internal/simnet"
)

// Every registered experiment must run clean in quick mode and produce
// non-empty, renderable tables. The experiments contain their own
// internal assertions (exact model matches, zero contentions, etc.), so
// an error here is a real reproduction failure.
func TestAllExperimentsQuick(t *testing.T) {
	cfg := Config{Quick: true}
	exps := All()
	if len(exps) < 15 {
		t.Fatalf("only %d experiments registered", len(exps))
	}
	for _, e := range exps {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("%s (%s): %v", e.ID, e.Paper, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tab := range tables {
				s := tab.String()
				if len(s) < 20 {
					t.Fatalf("%s rendered suspiciously short table: %q", e.ID, s)
				}
				if !strings.Contains(s, "\n") {
					t.Fatalf("%s table has no rows", e.ID)
				}
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("table2"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
	ids := IDs()
	if len(ids) != len(All()) {
		t.Fatalf("IDs/All mismatch")
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("ids not sorted: %v", ids)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	var cfg Config
	p := cfg.params()
	if p.Alpha != 20 || p.TauS != 100 || p.Mu != 2 || p.D != 37 {
		t.Fatalf("default params = %+v", p)
	}
	custom := Config{Params: simnet.Params{TauS: 7, Alpha: 3, Mu: 1}}
	if custom.params().TauS != 7 {
		t.Fatalf("custom params ignored")
	}
	// A partially set Params keeps every given field; only the fields
	// whose zero value is invalid (α, μ) fall back to defaults. The seed
	// bug replaced the whole struct with defaults whenever Alpha was 0.
	partial := Config{Params: simnet.Params{TauS: 7}}.params()
	if partial.TauS != 7 {
		t.Fatalf("partial params: TauS = %d, want 7 kept", partial.TauS)
	}
	if partial.Alpha != 20 || partial.Mu != 2 {
		t.Fatalf("partial params: Alpha/Mu = %d/%d, want defaults 20/2", partial.Alpha, partial.Mu)
	}
	if partial.D != 0 {
		t.Fatalf("partial params: D = %d, want explicit 0 kept", partial.D)
	}
	noAlpha := Config{Params: simnet.Params{TauS: 50, Mu: 3, D: 11}}.params()
	if noAlpha.TauS != 50 || noAlpha.Mu != 3 || noAlpha.D != 11 || noAlpha.Alpha != 20 {
		t.Fatalf("partial params without alpha = %+v", noAlpha)
	}
}

func TestHelperFormatting(t *testing.T) {
	if match(10, 10) != "exact" {
		t.Fatal("match(10,10)")
	}
	if !strings.Contains(match(11, 10), "+1") {
		t.Fatalf("match(11,10) = %q", match(11, 10))
	}
	if ns(500) != "500 ns" || !strings.Contains(ns(2_500), "µs") || !strings.Contains(ns(3_000_000), "ms") {
		t.Fatalf("ns formatting: %q %q %q", ns(500), ns(2_500), ns(3_000_000))
	}
}

package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckAllocsFailsLoudly pins the -check contract: a missing,
// corrupt, or degenerate -against report must fail the gate with a clear
// error, never let it silently pass; a genuine regression trips it; a
// measurement within the envelope passes.
func TestCheckAllocsFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	good := write("good.json", `{"current": {"allocs_per_event": 1e-5}}`)
	corrupt := write("corrupt.json", `{"current": {"allocs_per_event":`)
	zero := write("zero.json", `{"current": {"allocs_per_event": 0}}`)
	empty := write("empty.json", `{}`)

	cases := []struct {
		name    string
		cur     metrics
		against string
		wantErr string
	}{
		{"missing file", metrics{AllocsPerEvent: 1e-5}, filepath.Join(dir, "nope.json"), "reading recorded report"},
		{"corrupt json", metrics{AllocsPerEvent: 1e-5}, corrupt, "parsing"},
		{"zero recorded", metrics{AllocsPerEvent: 1e-5}, zero, "non-positive"},
		{"empty report", metrics{AllocsPerEvent: 1e-5}, empty, "non-positive"},
		{"regression", metrics{AllocsPerEvent: 1.1e-4}, good, "regressed"},
		{"pass", metrics{AllocsPerEvent: 2e-5}, good, ""},
		{"pass at limit", metrics{AllocsPerEvent: 9.9e-5}, good, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkAllocs(tc.cur, tc.against)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected gate failure: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("gate passed silently, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestCheckSpeedGate pins the ns/event gate: missing or degenerate
// recorded values fail loudly, a regression beyond tolerance trips it,
// and measurements within (or at) the envelope pass.
func TestCheckSpeedGate(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	good := write("good.json", `{"current": {"ns_per_event": 100}}`)
	zero := write("zero.json", `{"current": {"ns_per_event": 0}}`)
	corrupt := write("corrupt.json", `{"current": {"ns_per_event":`)

	cases := []struct {
		name    string
		cur     metrics
		against string
		wantErr string
	}{
		{"missing file", metrics{NsPerEvent: 100}, filepath.Join(dir, "nope.json"), "reading recorded report"},
		{"corrupt json", metrics{NsPerEvent: 100}, corrupt, "parsing"},
		{"zero recorded", metrics{NsPerEvent: 100}, zero, "non-positive"},
		{"regression", metrics{NsPerEvent: 116}, good, "regressed"},
		{"pass", metrics{NsPerEvent: 100}, good, ""},
		{"pass at limit", metrics{NsPerEvent: 114.9}, good, ""},
		{"pass improved", metrics{NsPerEvent: 40}, good, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkSpeed(tc.cur, tc.against, 0.15)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected gate failure: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("gate passed silently, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestCheckRepairedGate pins the repair-on gate: a report without the
// repaired figures fails loudly, bytes per placement beyond 1.5x or
// ns/event beyond tolerance trip it, and measurements within (or at)
// the envelope pass.
func TestCheckRepairedGate(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	good := write("good.json", `{"repaired_q6": {"ns_per_event": 100, "bytes_per_placement": 2e6}}`)
	absent := write("absent.json", `{"current": {"ns_per_event": 100}}`)
	zero := write("zero.json", `{"repaired_q6": {"ns_per_event": 100, "bytes_per_placement": 0}}`)

	cases := []struct {
		name    string
		cur     repairedMetrics
		against string
		wantErr string
	}{
		{"missing file", repairedMetrics{NsPerEvent: 100, BytesPerPlacement: 2e6}, filepath.Join(dir, "nope.json"), "reading recorded report"},
		{"absent", repairedMetrics{NsPerEvent: 100, BytesPerPlacement: 2e6}, absent, "records no positive"},
		{"zero recorded", repairedMetrics{NsPerEvent: 100, BytesPerPlacement: 2e6}, zero, "records no positive"},
		{"bytes regression", repairedMetrics{NsPerEvent: 100, BytesPerPlacement: 3.1e6}, good, "bytes/placement regressed"},
		{"speed regression", repairedMetrics{NsPerEvent: 116, BytesPerPlacement: 2e6}, good, "ns/event regressed"},
		{"pass", repairedMetrics{NsPerEvent: 100, BytesPerPlacement: 2e6}, good, ""},
		{"pass at limit", repairedMetrics{NsPerEvent: 114.9, BytesPerPlacement: 2.99e6}, good, ""},
		{"pass improved", repairedMetrics{NsPerEvent: 40, BytesPerPlacement: 1e6}, good, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkRepaired(tc.cur, tc.against, 0.15)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected gate failure: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("gate passed silently, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestParseWorkerList covers the -engine-workers flag parsing.
func TestParseWorkerList(t *testing.T) {
	got, err := parseWorkerList("1,2,4,8")
	if err != nil || len(got) != 4 || got[0] != 1 || got[3] != 8 {
		t.Fatalf("parseWorkerList(1,2,4,8) = %v, %v", got, err)
	}
	if ws, err := parseWorkerList(""); err != nil || ws != nil {
		t.Fatalf("empty list: %v, %v", ws, err)
	}
	for _, bad := range []string{"0", "a", "1,,2", "-3"} {
		if _, err := parseWorkerList(bad); err == nil {
			t.Errorf("parseWorkerList(%q) accepted", bad)
		}
	}
}

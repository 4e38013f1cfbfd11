package harness

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ihc/internal/tablefmt"
)

// renderOne renders a single experiment exactly as cmd/ihcbench prints
// it to stdout: the header line, then each table followed by one blank
// line. It runs at GOMAXPROCS k.
func renderOne(t *testing.T, id string, k int) []byte {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	var tables []*tablefmt.Table
	atWidth(k, func() { tables, err = e.Run(Config{Quick: true}) })
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "=== %s (%s): %s ===\n", e.ID, e.Paper, e.Title)
	for _, tab := range tables {
		tab.Render(&buf)
		fmt.Fprintln(&buf)
	}
	return buf.Bytes()
}

// TestGoldenOutput compares every experiment's rendered quick output
// against its recorded file, `ihcbench -quick -run <id>` at the commit
// that recorded it (table1 and fig6 date from the pre-flat-array
// engine). Byte identity across engine rewrites — and across
// worker-pool widths — is the regression oracle for the whole
// simulation stack: any change to event ordering, timing arithmetic, or
// sweep merging shows up as a diff here. A change meant to alter a
// table records its new golden file in the same commit.
func TestGoldenOutput(t *testing.T) {
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", id+"_quick.golden"))
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 4} {
				got := renderOne(t, id, k)
				if !bytes.Equal(got, want) {
					t.Errorf("%s (GOMAXPROCS %d) differs from recorded output\n--- got ---\n%s\n--- want ---\n%s",
						id, k, got, want)
				}
			}
		})
	}
}

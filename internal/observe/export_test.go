package observe

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestJSONLExport(t *testing.T) {
	_, rec := record(t, 2, testParams)
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	rec.replay(j)
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := 0
	hops, dels := 0, 0
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines++
		var obj map[string]interface{}
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("line %d is not JSON: %v", lines, err)
		}
		switch obj["type"] {
		case "hop":
			hops++
			for _, k := range []string{"src", "ch", "seq", "hop", "from", "to", "arc", "kind", "depart", "tail", "flits"} {
				if _, ok := obj[k]; !ok {
					t.Fatalf("hop record missing %q: %v", k, obj)
				}
			}
		case "deliver":
			dels++
		default:
			t.Fatalf("unknown record type %v", obj["type"])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != len(rec.evs) || hops == 0 || dels == 0 {
		t.Fatalf("exported %d lines (%d hops, %d deliveries), recorded %d events", lines, hops, dels, len(rec.evs))
	}
}

func TestChromeTraceExport(t *testing.T) {
	_, rec := record(t, 2, testParams)
	var buf bytes.Buffer
	ct := NewChromeTrace(&buf)
	rec.replay(ct)
	if err := ct.Close(); err != nil {
		t.Fatal(err)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	if len(events) != len(rec.evs) {
		t.Fatalf("trace has %d events, recorded %d", len(events), len(rec.evs))
	}
	for i, ev := range events {
		ph, _ := ev["ph"].(string)
		if ph != "X" && ph != "i" {
			t.Fatalf("event %d: unexpected phase %q", i, ph)
		}
		if _, ok := ev["ts"].(float64); !ok {
			t.Fatalf("event %d: missing ts", i)
		}
	}
}

// An empty trace must still be a valid JSON array.
func TestChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	ct := NewChromeTrace(&buf)
	if err := ct.Close(); err != nil {
		t.Fatal(err)
	}
	var events []interface{}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil || len(events) != 0 {
		t.Fatalf("empty trace invalid: %v %v", err, events)
	}
}

// OpenTrace asks for nothing on an empty path, rejects an unknown
// format, and leaves every event in the JSONL file once done returns.
func TestOpenTrace(t *testing.T) {
	obs, done, err := OpenTrace("", "jsonl")
	if err != nil || obs != nil {
		t.Fatalf("empty path: observer %v, error %v; want nil, nil", obs, err)
	}
	if err := done(); err != nil {
		t.Fatalf("empty path: done: %v", err)
	}

	dir := t.TempDir()
	if _, _, err := OpenTrace(filepath.Join(dir, "t.bin"), "protobuf"); err == nil {
		t.Fatal("unknown format accepted")
	}

	path := filepath.Join(dir, "t.jsonl")
	obs, done, err = OpenTrace(path, "jsonl")
	if err != nil {
		t.Fatal(err)
	}
	_, rec := record(t, 2, testParams)
	rec.replay(obs)
	if err := done(); err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(body, []byte("\n")); lines != len(rec.evs) {
		t.Fatalf("trace file holds %d lines, recorded %d events", lines, len(rec.evs))
	}
}

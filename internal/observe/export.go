package observe

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"ihc/internal/simnet"
)

// jsonlHop is the JSONL wire form of one hop record.
type jsonlHop struct {
	Type         string      `json:"type"` // "hop"
	Source       int         `json:"src"`
	Channel      int         `json:"ch"`
	Seq          int         `json:"seq"`
	Hop          int         `json:"hop"`
	From         int         `json:"from"`
	To           int         `json:"to"`
	Arc          int         `json:"arc"`
	Kind         string      `json:"kind"`
	HeaderDepart simnet.Time `json:"depart"`
	TailArrive   simnet.Time `json:"tail"`
	Flits        int         `json:"flits"`
	Blocked      bool        `json:"blocked,omitempty"`
}

// jsonlDeliver is the JSONL wire form of one delivery record.
type jsonlDeliver struct {
	Type      string      `json:"type"` // "deliver"
	Source    int         `json:"src"`
	Channel   int         `json:"ch"`
	Seq       int         `json:"seq"`
	Node      int         `json:"node"`
	At        simnet.Time `json:"at"`
	Corrupted bool        `json:"corrupted,omitempty"`
}

// JSONL streams every observed hop and delivery as one JSON object per
// line — greppable, jq-able, and replayable. Buffered; call Flush (or
// Close) when the run completes. The first write error sticks and is
// reported by Flush.
type JSONL struct {
	w   *bufio.Writer
	enc *json.Encoder
	err error
}

// NewJSONL returns a JSONL exporter writing to w.
func NewJSONL(w io.Writer) *JSONL {
	bw := bufio.NewWriterSize(w, 1<<16)
	return &JSONL{w: bw, enc: json.NewEncoder(bw)}
}

// OnHop implements simnet.Observer.
func (j *JSONL) OnHop(h simnet.HopEvent) {
	if j.err != nil {
		return
	}
	j.err = j.enc.Encode(jsonlHop{
		Type: "hop", Source: int(h.ID.Source), Channel: h.ID.Channel, Seq: h.ID.Seq,
		Hop: h.Hop, From: int(h.From), To: int(h.To), Arc: h.Arc,
		Kind: h.Kind.String(), HeaderDepart: h.HeaderDepart, TailArrive: h.TailArrive,
		Flits: h.Flits, Blocked: h.Blocked,
	})
}

// OnDeliver implements simnet.Observer.
func (j *JSONL) OnDeliver(d simnet.Delivery) {
	if j.err != nil {
		return
	}
	j.err = j.enc.Encode(jsonlDeliver{
		Type: "deliver", Source: int(d.ID.Source), Channel: d.ID.Channel, Seq: d.ID.Seq,
		Node: int(d.Node), At: d.At, Corrupted: d.Corrupted,
	})
}

// Flush drains the buffer and reports the first error encountered.
func (j *JSONL) Flush() error {
	if j.err != nil {
		return j.err
	}
	return j.w.Flush()
}

// ChromeTrace writes the observed stream in the Chrome trace-event
// format (the JSON array flavor), loadable in chrome://tracing or
// Perfetto: each hop is a complete ("X") slice on the track of its
// directed link, each delivery an instant ("i") event on the track of
// the receiving node, and one simulated tick maps to one microsecond
// of trace time. Call Close to terminate the JSON array.
type ChromeTrace struct {
	w     *bufio.Writer
	err   error
	first bool
}

// NewChromeTrace returns a trace writer targeting w.
func NewChromeTrace(w io.Writer) *ChromeTrace {
	ct := &ChromeTrace{w: bufio.NewWriterSize(w, 1<<16), first: true}
	_, ct.err = ct.w.WriteString("[\n")
	return ct
}

func (ct *ChromeTrace) emit(raw string) {
	if ct.err != nil {
		return
	}
	if !ct.first {
		if _, ct.err = ct.w.WriteString(",\n"); ct.err != nil {
			return
		}
	}
	ct.first = false
	_, ct.err = ct.w.WriteString(raw)
}

// OnHop implements simnet.Observer.
func (ct *ChromeTrace) OnHop(h simnet.HopEvent) {
	name, err := json.Marshal(fmt.Sprintf("%v %s", h.ID, h.Kind))
	if err != nil {
		ct.err = err
		return
	}
	tid, err := json.Marshal(fmt.Sprintf("link %d→%d", h.From, h.To))
	if err != nil {
		ct.err = err
		return
	}
	ct.emit(fmt.Sprintf(`{"name":%s,"ph":"X","ts":%d,"dur":%d,"pid":0,"tid":%s,"args":{"hop":%d,"flits":%d,"blocked":%v}}`,
		name, h.HeaderDepart, h.TailArrive-h.HeaderDepart, tid, h.Hop, h.Flits, h.Blocked))
}

// OnDeliver implements simnet.Observer.
func (ct *ChromeTrace) OnDeliver(d simnet.Delivery) {
	name, err := json.Marshal(fmt.Sprintf("deliver %v", d.ID))
	if err != nil {
		ct.err = err
		return
	}
	tid, err := json.Marshal(fmt.Sprintf("node %d", d.Node))
	if err != nil {
		ct.err = err
		return
	}
	ct.emit(fmt.Sprintf(`{"name":%s,"ph":"i","ts":%d,"pid":1,"tid":%s,"s":"t","args":{"corrupted":%v}}`,
		name, d.At, tid, d.Corrupted))
}

// Close terminates the JSON array, flushes, and reports the first
// error encountered.
func (ct *ChromeTrace) Close() error {
	if ct.err != nil {
		return ct.err
	}
	if _, ct.err = ct.w.WriteString("\n]\n"); ct.err != nil {
		return ct.err
	}
	return ct.w.Flush()
}

// OpenTrace builds the trace exporter a command line asks for: format
// "jsonl" (JSONL) or "chrome" (ChromeTrace), writing to the file at
// path, or to standard output when path is "-". The returned done func
// flushes the exporter and closes the file. An empty path asks for no
// trace: the observer is nil and done does nothing.
func OpenTrace(path, format string) (obs simnet.Observer, done func() error, err error) {
	if path == "" {
		return nil, func() error { return nil }, nil
	}
	var w io.Writer = os.Stdout
	var file *os.File
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return nil, nil, err
		}
		w, file = f, f
	}
	closeFile := func() error {
		if file != nil {
			return file.Close()
		}
		return nil
	}
	switch format {
	case "jsonl":
		j := NewJSONL(w)
		return j, func() error {
			if err := j.Flush(); err != nil {
				closeFile()
				return err
			}
			return closeFile()
		}, nil
	case "chrome":
		ct := NewChromeTrace(w)
		return ct, func() error {
			if err := ct.Close(); err != nil {
				closeFile()
				return err
			}
			return closeFile()
		}, nil
	}
	closeFile()
	return nil, nil, fmt.Errorf("unknown -tracefmt %q (want jsonl or chrome)", format)
}

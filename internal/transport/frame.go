package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"ihc/internal/hlc"
	"ihc/internal/keyring"
	"ihc/internal/topology"
)

// FrameKind discriminates the wire protocol's message types.
type FrameKind uint8

const (
	// FrameData carries one hop of a scheduled broadcast copy: the
	// source's payload for one channel, travelling directed
	// Hamiltonian cycle Channel.
	FrameData FrameKind = iota + 1
	// FrameNak asks a peer to retransmit the copy (Source, Channel)
	// that missed its deadline at the requester.
	FrameNak
	// FrameRepair answers a NAK with the stored copy.
	FrameRepair
	// FrameMiss answers a NAK the provider cannot serve (it does not
	// hold the copy either); the requester rotates to the next peer
	// immediately instead of burning the full timeout.
	FrameMiss
	// FrameJoin asks a neighbor what epoch the stream has reached — the
	// first message a restarted node sends. Unsigned, like NAK: it can
	// only trigger a signed FrameEpoch response, never forge one.
	FrameJoin
	// FrameEpoch answers a JOIN with the responder's current epoch in
	// the Epoch field, HMAC-signed under the responder's key (Source =
	// responder) so a forged fast-forward fails verification.
	FrameEpoch
)

// Signed reports whether frames of kind k carry a MAC under their
// source's key: DATA, REPAIR and EPOCH. NAK, MISS and JOIN do not.
func (k FrameKind) Signed() bool {
	return k == FrameData || k == FrameRepair || k == FrameEpoch
}

func (k FrameKind) String() string {
	switch k {
	case FrameData:
		return "DATA"
	case FrameNak:
		return "NAK"
	case FrameRepair:
		return "REPAIR"
	case FrameMiss:
		return "MISS"
	case FrameJoin:
		return "JOIN"
	case FrameEpoch:
		return "EPOCH"
	default:
		return fmt.Sprintf("FrameKind(%d)", uint8(k))
	}
}

// Frame is the unit the transport moves: one signed broadcast copy (or
// one repair-protocol control message) plus the per-hop fields a
// store-and-forward relay stamps on it. A frame carries no route: every
// node holds the IHC schedule and takes a copy's next hop from it.
type Frame struct {
	Kind    FrameKind
	From    topology.Node // immediate sender (previous hop), not the origin
	Source  topology.Node // broadcast source the payload belongs to
	Epoch   uint32        // streaming round the copy belongs to
	Channel uint8         // Hamiltonian cycle index j < γ
	Stage   uint8         // schedule stage the copy was injected in
	Hop     uint16        // sender's distance from Source on its cycle (REPAIR: the requester's − 1)
	HLC     hlc.Timestamp // sender's hybrid logical clock at send time
	Payload []byte
	MAC     []byte // HMAC over the canonical bytes, under Source's key
}

// Wire limits. MaxFrame bounds what a reader will accept before
// decoding — a corrupt or hostile length prefix must not allocate
// gigabytes. frameHdr is the fixed header ahead of the payload length.
const (
	MaxFrame = 1 << 16
	frameHdr = 1 + 4 + 4 + 4 + 1 + 1 + 2 + 8 + 4
)

var (
	ErrFrameTooLarge  = errors.New("transport: frame exceeds MaxFrame")
	ErrFrameTruncated = errors.New("transport: frame body truncated")
)

// EncodeFrame serialises f into a self-contained body (no length
// prefix; WriteFrame adds one). Layout, little-endian:
//
//	kind u8 | from i32 | source i32 | epoch u32 |
//	channel u8 | stage u8 | hop u16 | hlcWall i64 | hlcLogical u32 |
//	payloadLen u16 | payload | macLen u16 | mac
//
// A frame's size is its payload and MAC plus 33 bytes, whatever the
// network's size.
func EncodeFrame(f *Frame) ([]byte, error) {
	n := frameHdr + 2 + len(f.Payload) + 2 + len(f.MAC)
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	b := make([]byte, 0, n)
	b = append(b, byte(f.Kind))
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(f.From)))
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(f.Source)))
	b = binary.LittleEndian.AppendUint32(b, f.Epoch)
	b = append(b, f.Channel, f.Stage)
	b = binary.LittleEndian.AppendUint16(b, f.Hop)
	b = binary.LittleEndian.AppendUint64(b, uint64(f.HLC.Wall))
	b = binary.LittleEndian.AppendUint32(b, f.HLC.Logical)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(f.Payload)))
	b = append(b, f.Payload...)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(f.MAC)))
	b = append(b, f.MAC...)
	return b, nil
}

// DecodeFrame parses a frame body produced by EncodeFrame. It never
// panics on malformed input: every length is bounds-checked before use,
// so a corrupted or adversarial body surfaces as an error. It allocates
// only the Frame.
//
// The decoded Payload and MAC are not copies: they are sub-slices of
// b, clipped to their own length (b[i:j:j]) so that appending to one
// reallocates instead of overwriting the bytes after it. The caller
// hands b over: neither it nor anyone else may modify b afterwards,
// because the frame — and whatever stores its payload — reads through
// it. Every body producer in this package obeys that: ReadFrame and
// the loopback's Send return a fresh body per frame, and a duplicated
// loopback frame shares one body between receivers that only read it.
func DecodeFrame(b []byte) (*Frame, error) {
	if len(b) > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	if len(b) < frameHdr+2 {
		return nil, ErrFrameTruncated
	}
	f := &Frame{}
	f.Kind = FrameKind(b[0])
	if f.Kind < FrameData || f.Kind > FrameEpoch {
		return nil, fmt.Errorf("transport: unknown frame kind %d", b[0])
	}
	f.From = topology.Node(int32(binary.LittleEndian.Uint32(b[1:])))
	f.Source = topology.Node(int32(binary.LittleEndian.Uint32(b[5:])))
	f.Epoch = binary.LittleEndian.Uint32(b[9:])
	f.Channel = b[13]
	f.Stage = b[14]
	f.Hop = binary.LittleEndian.Uint16(b[15:])
	f.HLC.Wall = int64(binary.LittleEndian.Uint64(b[17:]))
	f.HLC.Logical = binary.LittleEndian.Uint32(b[25:])
	off := frameHdr
	payloadLen := int(binary.LittleEndian.Uint16(b[off:]))
	off += 2
	if len(b) < off+payloadLen+2 {
		return nil, ErrFrameTruncated
	}
	if payloadLen > 0 {
		f.Payload = b[off : off+payloadLen : off+payloadLen]
	}
	off += payloadLen
	macLen := int(binary.LittleEndian.Uint16(b[off:]))
	off += 2
	if len(b) != off+macLen {
		return nil, ErrFrameTruncated
	}
	if macLen > 0 {
		f.MAC = b[off : off+macLen : off+macLen]
	}
	return f, nil
}

// beginMAC starts f's MAC under its source's key and writes what the
// MAC covers: the fields a relay must not be able to alter undetected.
// From, Hop, and HLC are deliberately excluded — they legitimately
// change at every hop; Source, Epoch, Channel, Stage, and Payload
// identify the broadcast copy itself. Binding the epoch
// prevents a stored copy from round e being replayed as a fresh copy
// in round e', and makes EPOCH handshake responses unforgeable.
//
// The covered bytes are a 14-byte header (source i32 | epoch u32 |
// channel u8 | stage u8 | payloadLen u32, little-endian) followed by
// the payload. They go to the HMAC as two writes, the header built in
// the pooled state's scratch space, so no buffer is assembled and the
// payload is never copied.
func beginMAC(kr *keyring.Keyring, f *Frame) (*keyring.MAC, error) {
	m, err := kr.Begin(f.Source)
	if err != nil {
		return nil, err
	}
	h := binary.LittleEndian.AppendUint32(m.Scratch[:0], uint32(int32(f.Source)))
	h = binary.LittleEndian.AppendUint32(h, f.Epoch)
	h = append(h, f.Channel, f.Stage)
	h = binary.LittleEndian.AppendUint32(h, uint32(len(f.Payload)))
	m.Write(h)
	m.Write(f.Payload)
	return m, nil
}

// SignFrame sets f.MAC to a freshly allocated MAC under the source's
// key. It never writes into the old f.MAC, which may be a sub-slice of
// a received body.
func SignFrame(kr *keyring.Keyring, f *Frame) error {
	m, err := beginMAC(kr, f)
	if err != nil {
		return err
	}
	f.MAC = m.Sum()
	return nil
}

// VerifyFrame reports whether f's MAC is valid under its claimed
// source's key. Unsigned kinds (NAK/MISS/JOIN, see FrameKind.Signed)
// carry no MAC and are accepted as they are: they can only trigger
// retransmission of signed data (or a signed EPOCH response), never
// forge it. EPOCH responses are signed: a rejoining node fast-forwards
// its epoch counter off them, so they must be unforgeable.
func VerifyFrame(kr *keyring.Keyring, f *Frame) (bool, error) {
	if !f.Kind.Signed() {
		return true, nil
	}
	m, err := beginMAC(kr, f)
	if err != nil {
		return false, err
	}
	return m.Check(f.MAC), nil
}

// WriteFrame writes body to w as one length-prefixed record.
func WriteFrame(w io.Writer, body []byte) error {
	if len(body) > MaxFrame {
		return ErrFrameTooLarge
	}
	var pre [4]byte
	binary.LittleEndian.PutUint32(pre[:], uint32(len(body)))
	if _, err := w.Write(pre[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// ReadFrame reads one length-prefixed record from r. The length is
// validated against MaxFrame before any allocation.
func ReadFrame(r io.Reader) ([]byte, error) {
	var pre [4]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(pre[:])
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

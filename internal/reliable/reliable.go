// Package reliable implements the *reliable* layer of ATA reliable
// broadcast: message authentication, voting over the γ redundant copies
// each node receives, the Dolev fault-tolerance bounds the paper cites,
// and an end-to-end evaluator that runs the IHC schedule under a fault
// plan and grades the outcome.
//
// Signed messages follow Rivest et al. in spirit: any disruption of a
// signed message's contents is detected on receipt, raising the
// tolerable number of faulty nodes from min{⌈γ/2⌉-1, ⌈N/3⌉-1} to γ-1.
// The paper's RSA signatures are replaced by SHA-256 HMACs with per-node
// keys (a trusted keyring stands in for the PKI); what matters to the
// algorithm — tampering is detected, signatures are unforgeable by other
// nodes — is preserved.
package reliable

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"sync"

	"ihc/internal/topology"
)

// Message is one node's broadcast payload with optional authentication.
type Message struct {
	Source  topology.Node
	Payload []byte
	MAC     []byte // nil for unsigned operation
}

// Keyring holds every node's signing key. In a deployment each node
// would hold only its own key plus the ability to verify the others';
// for simulation one keyring plays both roles. It is safe for
// concurrent use: one keyring serves every node of an in-process
// cluster.
type Keyring struct {
	keys [][]byte
	// macs[i] pools keyed HMAC states for node i. Keying HMAC-SHA-256
	// hashes both pads; a pooled state's Reset restores the keyed
	// state from saved pads instead, so a MAC costs only its data.
	macs []sync.Pool
}

// NewKeyring derives n per-node keys from a master seed.
func NewKeyring(n int, seed int64) *Keyring {
	kr := &Keyring{keys: make([][]byte, n), macs: make([]sync.Pool, n)}
	for i := range kr.keys {
		var buf [16]byte
		binary.LittleEndian.PutUint64(buf[:8], uint64(seed))
		binary.LittleEndian.PutUint64(buf[8:], uint64(i))
		sum := sha256.Sum256(buf[:])
		kr.keys[i] = sum[:]
	}
	return kr
}

// N returns the number of nodes the keyring holds keys for.
func (kr *Keyring) N() int { return len(kr.keys) }

// checkSource rejects source ids the keyring has no key for. A malformed
// message used to panic with a bare index error deep inside HMAC setup;
// it now surfaces as a diagnosable error, which matters once messages can
// arrive from a simulated Byzantine sender claiming an arbitrary source.
func (kr *Keyring) checkSource(src topology.Node) error {
	if src < 0 || int(src) >= len(kr.keys) {
		return fmt.Errorf("reliable: message claims source %d, keyring holds keys for nodes [0,%d)", src, len(kr.keys))
	}
	return nil
}

// MAC is one HMAC-SHA-256 computation under one node's key, borrowed
// from the keyring's pool by Begin. Write the message in as many
// pieces as convenient, then end with exactly one Sum or Check; both
// return the state to the pool, so the MAC must not be used after.
type MAC struct {
	h hash.Hash
	// Scratch is caller space for a short message prefix (a frame's
	// canonical header). It lives in the pooled state, so writing it
	// allocates nothing, where a stack array passed to Write would
	// escape to the heap.
	Scratch [16]byte
	sum     [sha256.Size]byte
	pool    *sync.Pool
}

// Begin borrows a keyed HMAC state for src, or errors when the
// keyring has no key for src.
func (kr *Keyring) Begin(src topology.Node) (*MAC, error) {
	if err := kr.checkSource(src); err != nil {
		return nil, err
	}
	pool := &kr.macs[src]
	m, _ := pool.Get().(*MAC)
	if m == nil {
		m = &MAC{h: hmac.New(sha256.New, kr.keys[src]), pool: pool}
	}
	m.h.Reset()
	return m, nil
}

// Write appends p to the MACed message.
func (m *MAC) Write(p []byte) { m.h.Write(p) }

// Sum returns the MAC in a freshly allocated slice and releases the
// state.
func (m *MAC) Sum() []byte {
	out := m.h.Sum(make([]byte, 0, sha256.Size))
	m.pool.Put(m)
	return out
}

// Check reports whether mac is the MAC of the message written, in
// constant time, and releases the state.
func (m *MAC) Check(mac []byte) bool {
	ok := hmac.Equal(m.h.Sum(m.sum[:0]), mac)
	m.pool.Put(m)
	return ok
}

// Sign returns msg with its MAC filled in under the source's key, or an
// error when the keyring has no key for the claimed source.
func (kr *Keyring) Sign(msg Message) (Message, error) {
	m, err := kr.Begin(msg.Source)
	if err != nil {
		return Message{}, err
	}
	m.Write(msg.Payload)
	msg.MAC = m.Sum()
	return msg, nil
}

// Verify reports whether msg's MAC is valid under its claimed source's
// key. A source outside the keyring is an error, not merely an invalid
// signature: the caller sent a structurally malformed message.
func (kr *Keyring) Verify(msg Message) (bool, error) {
	m, err := kr.Begin(msg.Source)
	if err != nil {
		return false, err
	}
	m.Write(msg.Payload)
	return m.Check(msg.MAC), nil
}

// DolevBound returns the maximum number of Byzantine nodes tolerable for
// correct message delivery in a γ-connected N-node network without
// message authentication: t <= min{⌈γ/2⌉-1, ⌈N/3⌉-1} (Dolev).
func DolevBound(gamma, n int) int {
	a := (gamma+1)/2 - 1
	b := (n+2)/3 - 1
	if a < b {
		return a
	}
	return b
}

// SignedBound returns the maximum number of Byzantine nodes tolerable
// with authenticated (signed) messages: t <= γ-1 (Rivest et al.).
func SignedBound(gamma int) int { return gamma - 1 }

// Copy is one received copy of a message, as graded by the fault
// injector.
type Copy struct {
	Payload []byte
	Valid   bool // MAC verified (signed mode); meaningless unsigned
}

// VoteUnsigned returns the plurality payload among the copies, or ok =
// false when no strict plurality exists (counting equal payloads; at
// least one copy required). This is the voter a system without message
// authentication must use. When every copy carries the same payload —
// the common case — the decision is that copy's payload slice itself,
// found without counting.
func VoteUnsigned(copies []Copy) ([]byte, bool) {
	if len(copies) == 0 {
		return nil, false
	}
	if unanimous(copies) {
		return copies[0].Payload, true
	}
	counts := map[string]int{}
	for _, c := range copies {
		counts[string(c.Payload)]++
	}
	best, bestN, secondN := "", 0, 0
	for pay, n := range counts {
		switch {
		case n > bestN:
			best, secondN, bestN = pay, bestN, n
		case n > secondN:
			secondN = n
		}
	}
	if bestN == 0 || bestN == secondN {
		return nil, false
	}
	return []byte(best), true
}

// unanimous reports whether every copy carries copies[0]'s payload.
func unanimous(copies []Copy) bool {
	first := copies[0].Payload
	for _, c := range copies[1:] {
		if string(c.Payload) != string(first) {
			return false
		}
	}
	return true
}

// VoteSigned discards copies whose MAC failed and returns the surviving
// payload; ok is false when no valid copy arrived or valid copies
// disagree (a two-faced signed source).
func VoteSigned(copies []Copy) ([]byte, bool) {
	var payload []byte
	seen := false
	for _, c := range copies {
		if !c.Valid {
			continue
		}
		if !seen {
			payload, seen = c.Payload, true
			continue
		}
		if string(payload) != string(c.Payload) {
			return nil, false
		}
	}
	if !seen {
		return nil, false
	}
	return payload, true
}

// TruthPayload is the canonical payload node v broadcasts in the
// evaluation harness (a deterministic function of the node id).
func TruthPayload(v topology.Node) []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v)*0x9e3779b97f4a7c15+0xabcd)
	return buf[:]
}

// truthPayloads returns TruthPayload(v) for every node v < n, so that
// graders compute each source's payload once rather than per copy.
func truthPayloads(n int) [][]byte {
	out := make([][]byte, n)
	for v := range out {
		out[v] = TruthPayload(topology.Node(v))
	}
	return out
}

// CorruptPayload is what a corrupting relay turns a payload into; it is a
// deterministic function of the original so experiments are repeatable.
func CorruptPayload(p []byte) []byte {
	out := make([]byte, len(p))
	copy(out, p)
	if len(out) > 0 {
		out[0] ^= 0xff
	}
	return out
}

// TwoFacedPayload is the alternative payload a Byzantine source sends on
// odd channels.
func TwoFacedPayload(v topology.Node) []byte {
	p := TruthPayload(v)
	p[len(p)-1] ^= 0xaa
	return p
}

func (m Message) String() string {
	return fmt.Sprintf("msg(src=%d, %d bytes, signed=%v)", m.Source, len(m.Payload), m.MAC != nil)
}

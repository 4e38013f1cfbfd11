// Package keyring holds the per-node HMAC-SHA-256 keys that stand in
// for the paper's RSA signatures: a Keyring signs and verifies broadcast
// messages (internal/reliable) and wire frames (internal/transport).
// Tampering with a signed message is detected on receipt, and no node
// can forge another's signature. It is a leaf package, so the wire
// layer does not depend on the simulator.
package keyring

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

// New derives n per-node keys from a master seed.
func New(n int, seed int64) *Keyring {
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
		return fmt.Errorf("keyring: message claims source %d, keyring holds keys for nodes [0,%d)", src, len(kr.keys))
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

func (m Message) String() string {
	return fmt.Sprintf("msg(src=%d, %d bytes, signed=%v)", m.Source, len(m.Payload), m.MAC != nil)
}

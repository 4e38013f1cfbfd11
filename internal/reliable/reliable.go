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
// for simulation one keyring plays both roles.
type Keyring struct {
	keys [][]byte
}

// NewKeyring derives n per-node keys from a master seed.
func NewKeyring(n int, seed int64) *Keyring {
	kr := &Keyring{keys: make([][]byte, n)}
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
func (kr *Keyring) checkSource(msg Message) error {
	if msg.Source < 0 || int(msg.Source) >= len(kr.keys) {
		return fmt.Errorf("reliable: message claims source %d, keyring holds keys for nodes [0,%d)", msg.Source, len(kr.keys))
	}
	return nil
}

// Sign returns msg with its MAC filled in under the source's key, or an
// error when the keyring has no key for the claimed source.
func (kr *Keyring) Sign(msg Message) (Message, error) {
	if err := kr.checkSource(msg); err != nil {
		return Message{}, err
	}
	mac := hmac.New(sha256.New, kr.keys[msg.Source])
	mac.Write(msg.Payload)
	msg.MAC = mac.Sum(nil)
	return msg, nil
}

// Verify reports whether msg's MAC is valid under its claimed source's
// key. A source outside the keyring is an error, not merely an invalid
// signature: the caller sent a structurally malformed message.
func (kr *Keyring) Verify(msg Message) (bool, error) {
	if err := kr.checkSource(msg); err != nil {
		return false, err
	}
	if msg.MAC == nil {
		return false, nil
	}
	mac := hmac.New(sha256.New, kr.keys[msg.Source])
	mac.Write(msg.Payload)
	return hmac.Equal(mac.Sum(nil), msg.MAC), nil
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

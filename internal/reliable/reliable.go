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
	"encoding/binary"

	"ihc/internal/keyring"
	"ihc/internal/topology"
)

// Message and Keyring live in internal/keyring, a leaf package, so
// the wire layer (internal/transport) can sign frames without depending
// on this package's simulator-driven graders.
type (
	Message = keyring.Message
	Keyring = keyring.Keyring
)

// NewKeyring derives n per-node keys from a master seed.
func NewKeyring(n int, seed int64) *Keyring { return keyring.New(n, seed) }

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

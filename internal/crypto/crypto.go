// Package crypto provides the node-layer cryptographic primitives of Atum:
// message digests, public-key signatures, and MAC-authenticated channels.
//
// Two signature schemes are provided behind one interface:
//
//   - Ed25519Scheme: real crypto/ed25519 signatures, used by the TCP runtime
//     and by correctness tests.
//   - SimScheme: a fast keyed-hash stand-in used by large discrete-event
//     simulations (hundreds of nodes, millions of messages), where real
//     asymmetric crypto would dominate CPU without changing any protocol
//     outcome. SimScheme is unforgeable only against the Byzantine behaviours
//     the harness itself injects (which, matching the paper's fault model,
//     never forge signatures).
//
// The scheme is a constructor parameter everywhere; swapping one for the
// other changes no protocol logic.
package crypto

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
)

// DigestSize is the size of a message digest in bytes.
const DigestSize = 32

// Digest is a SHA-256 message digest.
type Digest [DigestSize]byte

// Hash computes the SHA-256 digest of the concatenation of the given chunks.
func Hash(chunks ...[]byte) Digest {
	h := sha256.New()
	for _, c := range chunks {
		h.Write(c)
	}
	var d Digest
	h.Sum(d[:0])
	return d
}

// HashUint64 folds a uint64 into a digest computation; convenient for
// deriving deterministic seeds from structured values.
func HashUint64(d Digest, v uint64) Digest {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return Hash(d[:], b[:])
}

// Derive is the one derivation of a deterministic identifier: the digest of
// tag and seed, with each part folded in after it by HashUint64. Every member
// that derives from the same inputs gets the same digest.
func Derive(tag string, seed []byte, parts ...uint64) Digest {
	d := Hash([]byte(tag), seed)
	for _, p := range parts {
		d = HashUint64(d, p)
	}
	return d
}

// Seed derives a deterministic int64 PRNG seed from a digest.
func (d Digest) Seed() int64 {
	return int64(binary.BigEndian.Uint64(d[:8]))
}

// IsZero reports whether the digest is all zeroes.
func (d Digest) IsZero() bool { return d == Digest{} }

// Signer produces signatures for one node identity.
type Signer interface {
	// Public returns the public key that verifies this signer's signatures.
	Public() []byte
	// Sign signs msg and returns the signature.
	Sign(msg []byte) []byte
}

// Scheme creates signers and verifies signatures.
type Scheme interface {
	// Name identifies the scheme ("ed25519" or "sim").
	Name() string
	// NewSigner derives a signer deterministically from a seed.
	NewSigner(seed []byte) Signer
	// Verify reports whether sig is a valid signature on msg under pub.
	Verify(pub, msg, sig []byte) bool
	// SignatureSize returns the size in bytes of a signature, used by the
	// bandwidth model to account for certificate-chain overhead.
	SignatureSize() int
}

// --- Ed25519 ---

// Ed25519Scheme signs with crypto/ed25519.
type Ed25519Scheme struct{}

var _ Scheme = Ed25519Scheme{}

// Name implements Scheme.
func (Ed25519Scheme) Name() string { return "ed25519" }

// SignatureSize implements Scheme.
func (Ed25519Scheme) SignatureSize() int { return ed25519.SignatureSize }

// NewSigner implements Scheme. The seed is hashed to the required length, so
// any seed bytes work.
func (Ed25519Scheme) NewSigner(seed []byte) Signer {
	h := sha256.Sum256(seed)
	priv := ed25519.NewKeyFromSeed(h[:])
	return ed25519Signer{priv: priv, pub: priv.Public().(ed25519.PublicKey)}
}

// Verify implements Scheme.
func (Ed25519Scheme) Verify(pub, msg, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(ed25519.PublicKey(pub), msg, sig)
}

type ed25519Signer struct {
	priv ed25519.PrivateKey
	pub  ed25519.PublicKey
}

func (s ed25519Signer) Public() []byte { return s.pub }

func (s ed25519Signer) Sign(msg []byte) []byte { return ed25519.Sign(s.priv, msg) }

// --- Simulation scheme ---

// simSigSize is the size of a SimScheme signature.
const simSigSize = 32

// SimScheme is the fast simulation signature scheme. A signature is
// HMAC-SHA256(key = H("atum-sim" || pub), msg): any party can in principle
// recompute it, so it provides no security against an adversary outside the
// harness — but harness-injected Byzantine nodes never forge (the paper's
// model assumes unforgeable signatures), and every verification path is still
// exercised byte-for-byte.
type SimScheme struct{}

var _ Scheme = SimScheme{}

// Name implements Scheme.
func (SimScheme) Name() string { return "sim" }

// SignatureSize implements Scheme.
func (SimScheme) SignatureSize() int { return simSigSize }

// NewSigner implements Scheme.
func (SimScheme) NewSigner(seed []byte) Signer {
	pub := Hash([]byte("atum-sim-pub"), seed)
	return simSigner{pub: pub[:]}
}

// Verify implements Scheme.
func (SimScheme) Verify(pub, msg, sig []byte) bool {
	if len(sig) != simSigSize {
		return false
	}
	want := simSign(pub, msg)
	return hmac.Equal(want, sig)
}

type simSigner struct {
	pub []byte
}

func (s simSigner) Public() []byte { return s.pub }

func (s simSigner) Sign(msg []byte) []byte { return simSign(s.pub, msg) }

func simSign(pub, msg []byte) []byte {
	key := Hash([]byte("atum-sim"), pub)
	mac := hmac.New(sha256.New, key[:])
	mac.Write(msg)
	return mac.Sum(nil)
}

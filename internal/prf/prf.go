// Package prf provides the pseudo-random function primitives behind RPoL's
// "stochastic-yet-deterministic" mini-batch gradient descent (Sec. V-B) and
// the address-seeded AMLayer weights (Sec. V-A).
//
// In each training step m a worker selects the n-th element of a batch as
// PRF(N·m + n) mod |D_w|, where N is a per-(worker, epoch) nonce issued by
// the manager. Because the schedule is a deterministic function of the nonce,
// the manager can recompute exactly the same batches during verification, yet
// across steps the batches look random — defeating replay attacks in which a
// worker resubmits old results.
package prf

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash"
	"slices"
)

// Nonce is the per-(worker, epoch) seed issued by the pool manager before
// local training starts.
type Nonce uint64

// ErrEmptyDataset is returned when an index into an empty dataset is
// requested.
var ErrEmptyDataset = errors.New("prf: empty dataset")

// PRF is a keyed pseudo-random function based on HMAC-SHA256. It keeps one
// keyed HMAC state and resets it per evaluation instead of keying a new one,
// so evaluations allocate nothing; a PRF is therefore not safe for
// concurrent use. The zero value is not usable; construct with New.
type PRF struct {
	mac hash.Hash
	in  [8]byte
	sum [sha256.Size]byte
}

// New returns a PRF keyed with key. The key is not retained.
func New(key []byte) *PRF {
	return &PRF{mac: hmac.New(sha256.New, key)}
}

// NewFromNonce returns a PRF keyed with the 8-byte big-endian encoding of the
// nonce, matching the paper's PRF(N·m + n) construction where the nonce
// parameterizes the function.
func NewFromNonce(n Nonce) *PRF {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(n))
	return New(buf[:])
}

// Eval returns the PRF output for input x as a uint64 (the first 8 bytes of
// the HMAC digest).
func (p *PRF) Eval(x uint64) uint64 {
	binary.BigEndian.PutUint64(p.in[:], x)
	p.EvalBytes(p.in[:])
	return binary.BigEndian.Uint64(p.sum[:8])
}

// EvalBytes returns the full 32-byte PRF output for an arbitrary input.
func (p *PRF) EvalBytes(input []byte) [32]byte {
	p.mac.Reset()
	p.mac.Write(input)
	p.mac.Sum(p.sum[:0])
	return p.sum
}

// DataIndex implements the paper's selection rule
// PRF(N·m + n) mod |D_w|: it returns the dataset index of the n-th element of
// the batch at training step m over a dataset of size datasetSize.
func (p *PRF) DataIndex(step, n, datasetSize int) (int, error) {
	if datasetSize <= 0 {
		return 0, ErrEmptyDataset
	}
	x := uint64(step)*uint64(batchStride) + uint64(n)
	return int(p.Eval(x) % uint64(datasetSize)), nil
}

// batchStride separates the PRF input domains of distinct steps. The paper
// writes PRF(N×m + n); using a large constant stride keeps step domains
// disjoint for any batch size up to the stride.
const batchStride = 1 << 20

// BatchIndices returns the dataset indices for the batch at training step
// m with the given batch size over a dataset of datasetSize elements.
// The same (PRF, step) always produces the same batch, which is what lets the
// manager re-execute sampled steps bit-for-bit.
func (p *PRF) BatchIndices(step, batchSize, datasetSize int) ([]int, error) {
	return p.BatchIndicesInto(nil, step, batchSize, datasetSize)
}

// BatchIndicesInto is BatchIndices written into dst's storage, which grows
// only when its capacity is short — the allocation-free form for callers
// that draw a batch every training step.
func (p *PRF) BatchIndicesInto(dst []int, step, batchSize, datasetSize int) ([]int, error) {
	if datasetSize <= 0 {
		return nil, ErrEmptyDataset
	}
	dst = slices.Grow(dst[:0], batchSize)[:batchSize]
	for n := range dst {
		idx, err := p.DataIndex(step, n, datasetSize)
		if err != nil {
			return nil, err
		}
		dst[n] = idx
	}
	return dst, nil
}

// DeriveNonce deterministically derives a per-(worker, epoch) nonce from a
// master key. The manager uses it to issue nonces without storing per-worker
// state.
func DeriveNonce(masterKey []byte, workerID string, epoch int) Nonce {
	mac := hmac.New(sha256.New, masterKey)
	mac.Write([]byte(workerID))
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(epoch))
	mac.Write(buf[:])
	return Nonce(binary.BigEndian.Uint64(mac.Sum(nil)))
}

// SeedFromString derives a deterministic int64 seed from an arbitrary string
// such as a blockchain address. AMLayer weight generation uses it so that a
// model layer is a pure function of the owner's address.
func SeedFromString(s string) int64 {
	sum := sha256.Sum256([]byte(s))
	return int64(binary.BigEndian.Uint64(sum[:8]) &^ (1 << 63))
}

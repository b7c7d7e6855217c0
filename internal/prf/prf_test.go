package prf

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"slices"
	"testing"
	"testing/quick"
)

func TestEvalDeterministic(t *testing.T) {
	p1 := New([]byte("key"))
	p2 := New([]byte("key"))
	if p1.Eval(42) != p2.Eval(42) {
		t.Error("same key/input must give same output")
	}
	if p1.Eval(42) == p1.Eval(43) {
		t.Error("different inputs should give different outputs")
	}
	q := New([]byte("other"))
	if p1.Eval(42) == q.Eval(42) {
		t.Error("different keys should give different outputs")
	}
}

func TestNewCopiesKey(t *testing.T) {
	key := []byte("secret")
	p := New(key)
	before := p.Eval(1)
	key[0] = 'X'
	if p.Eval(1) != before {
		t.Error("PRF must not alias the caller's key slice")
	}
}

func TestNewFromNonce(t *testing.T) {
	a := NewFromNonce(1)
	b := NewFromNonce(1)
	c := NewFromNonce(2)
	if a.Eval(7) != b.Eval(7) {
		t.Error("same nonce must give same PRF")
	}
	if a.Eval(7) == c.Eval(7) {
		t.Error("different nonces should give different PRFs")
	}
}

func TestDataIndexRange(t *testing.T) {
	p := NewFromNonce(9)
	for step := 0; step < 10; step++ {
		for n := 0; n < 10; n++ {
			idx, err := p.DataIndex(step, n, 100)
			if err != nil {
				t.Fatal(err)
			}
			if idx < 0 || idx >= 100 {
				t.Fatalf("index %d out of range", idx)
			}
		}
	}
}

func TestDataIndexEmptyDataset(t *testing.T) {
	p := NewFromNonce(9)
	if _, err := p.DataIndex(0, 0, 0); !errors.Is(err, ErrEmptyDataset) {
		t.Errorf("err = %v, want ErrEmptyDataset", err)
	}
	if _, err := p.BatchIndices(0, 4, 0); !errors.Is(err, ErrEmptyDataset) {
		t.Errorf("err = %v, want ErrEmptyDataset", err)
	}
}

func TestBatchIndicesReproducible(t *testing.T) {
	p := NewFromNonce(1234)
	a, err := p.BatchIndices(5, 16, 1000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.BatchIndices(5, 16, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("batch not reproducible at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestBatchesDifferAcrossSteps(t *testing.T) {
	// The stochastic-yet-deterministic property: batches at different steps
	// must be differentiable, or replay attacks would be possible (Sec. V-B).
	p := NewFromNonce(77)
	a, _ := p.BatchIndices(0, 32, 10000)
	b, _ := p.BatchIndices(1, 32, 10000)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("consecutive steps produced identical batches")
	}
}

func TestBatchesDifferAcrossNonces(t *testing.T) {
	a, _ := NewFromNonce(1).BatchIndices(0, 32, 10000)
	b, _ := NewFromNonce(2).BatchIndices(0, 32, 10000)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different nonces produced identical batches")
	}
}

func TestDeriveNonceStable(t *testing.T) {
	k := []byte("master")
	if DeriveNonce(k, "w1", 3) != DeriveNonce(k, "w1", 3) {
		t.Error("nonce derivation must be deterministic")
	}
	if DeriveNonce(k, "w1", 3) == DeriveNonce(k, "w1", 4) {
		t.Error("different epochs should give different nonces")
	}
	if DeriveNonce(k, "w1", 3) == DeriveNonce(k, "w2", 3) {
		t.Error("different workers should give different nonces")
	}
	if DeriveNonce(k, "w1", 3) == DeriveNonce([]byte("other"), "w1", 3) {
		t.Error("different master keys should give different nonces")
	}
}

func TestSeedFromString(t *testing.T) {
	s1 := SeedFromString("addr-1")
	if s1 != SeedFromString("addr-1") {
		t.Error("seed must be deterministic")
	}
	if s1 == SeedFromString("addr-2") {
		t.Error("different addresses should give different seeds")
	}
	if s1 < 0 {
		t.Error("seed must be non-negative")
	}
}

// Property: DataIndex always lands inside the dataset.
func TestDataIndexRangeProperty(t *testing.T) {
	p := NewFromNonce(5)
	f := func(step, n uint16, size uint16) bool {
		sz := int(size%5000) + 1
		idx, err := p.DataIndex(int(step), int(n), sz)
		return err == nil && idx >= 0 && idx < sz
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: batch distribution is roughly uniform — every index of a small
// dataset is hit when drawing many samples.
func TestBatchCoverage(t *testing.T) {
	p := NewFromNonce(42)
	const size = 10
	seen := make(map[int]bool)
	for step := 0; step < 50; step++ {
		idxs, err := p.BatchIndices(step, 8, size)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range idxs {
			seen[i] = true
		}
	}
	if len(seen) != size {
		t.Errorf("coverage %d/%d after 400 draws", len(seen), size)
	}
}

func TestEvalBytes(t *testing.T) {
	p := New([]byte("k"))
	a := p.EvalBytes([]byte("hello"))
	b := p.EvalBytes([]byte("hello"))
	if a != b {
		t.Error("EvalBytes must be deterministic")
	}
	c := p.EvalBytes([]byte("world"))
	if a == c {
		t.Error("EvalBytes must differ across inputs")
	}
}

// TestEvalMatchesHMAC pins the PRF to its definition: the first 8 bytes of
// HMAC-SHA256 under the key, computed here with a freshly keyed HMAC per
// input. Reusing one reset HMAC state must not change an output bit.
func TestEvalMatchesHMAC(t *testing.T) {
	key := []byte{0, 0, 0, 0, 0, 0, 0, 7}
	p := NewFromNonce(7)
	for _, x := range []uint64{0, 1, 42, batchStride + 3, 1 << 63} {
		mac := hmac.New(sha256.New, key)
		var in [8]byte
		binary.BigEndian.PutUint64(in[:], x)
		mac.Write(in[:])
		want := mac.Sum(nil)
		if got := p.Eval(x); got != binary.BigEndian.Uint64(want) {
			t.Errorf("Eval(%d) = %x, want %x", x, got, want[:8])
		}
		if got := p.EvalBytes(in[:]); !bytes.Equal(got[:], want) {
			t.Errorf("EvalBytes(%d) = %x, want %x", x, got, want)
		}
	}
}

func TestBatchIndicesIntoReusesStorage(t *testing.T) {
	p := NewFromNonce(99)
	var dst []int
	for step := 0; step < 4; step++ {
		for _, size := range []int{1, 8, 33} {
			want := make([]int, size)
			for n := range want {
				idx, err := p.DataIndex(step, n, 97)
				if err != nil {
					t.Fatal(err)
				}
				want[n] = idx
			}
			var err error
			if dst, err = p.BatchIndicesInto(dst, step, size, 97); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(dst, want) {
				t.Fatalf("step %d size %d: %v, want %v", step, size, dst, want)
			}
		}
	}
	if _, err := p.BatchIndicesInto(dst, 0, 4, 0); !errors.Is(err, ErrEmptyDataset) {
		t.Errorf("empty dataset: err = %v, want ErrEmptyDataset", err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := p.BatchIndicesInto(dst, 3, 32, 1000); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("BatchIndicesInto allocates %.0f per batch after warm-up, want 0", allocs)
	}
}

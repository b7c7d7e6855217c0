package rpol

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"rpol/internal/commitment"
	"rpol/internal/gpu"
	"rpol/internal/tensor"
)

// pullAttackOpener serves an honest worker's openings except the proof pull
// for one target leaf, which attack rewrites — a worker answering one
// challenge with material that was never committed at that leaf.
type pullAttackOpener struct {
	inner  ProofOpener
	target int
	attack func(inner ProofOpener, lp LeafProof) (LeafProof, error)
}

func (o *pullAttackOpener) OpenCheckpoint(idx int) (tensor.Vector, error) {
	return o.inner.OpenCheckpoint(idx)
}

func (o *pullAttackOpener) OpenProof(idx int) (LeafProof, error) {
	lp, err := o.inner.OpenProof(idx)
	if err != nil || idx != o.target {
		return lp, err
	}
	// Never mutate the honest worker's stored proof.
	lp.Proof.Siblings = slices.Clone(lp.Proof.Siblings)
	lp.Digest = slices.Clone(lp.Digest)
	return o.attack(o.inner, lp)
}

// TestVerifyRejectsUnauthenticatedPull is the malicious-opener matrix for
// the streaming Merkle commitment: every forged proof pull must be rejected
// by both the serial and the parallel verifier. The attacked leaf is one
// that only the outcome comparison pulls (an interval's output, never an
// interval's input or a binding check), so under v2 the verdict rests on
// compareLSH authenticating the digest it decodes.
func TestVerifyRejectsUnauthenticatedPull(t *testing.T) {
	otherLeaf := func(target int) int { return target - 1 }
	attacks := []struct {
		name   string
		v2Only bool
		attack func(target int) func(ProofOpener, LeafProof) (LeafProof, error)
	}{
		{"zeroed siblings", false, func(int) func(ProofOpener, LeafProof) (LeafProof, error) {
			return func(_ ProofOpener, lp LeafProof) (LeafProof, error) {
				clear(lp.Proof.Siblings)
				return lp, nil
			}
		}},
		{"proof for another leaf", false, func(target int) func(ProofOpener, LeafProof) (LeafProof, error) {
			return func(inner ProofOpener, _ LeafProof) (LeafProof, error) {
				return inner.OpenProof(otherLeaf(target))
			}
		}},
		{"another leaf's proof relabeled", false, func(target int) func(ProofOpener, LeafProof) (LeafProof, error) {
			return func(inner ProofOpener, _ LeafProof) (LeafProof, error) {
				lp, err := inner.OpenProof(otherLeaf(target))
				lp.Proof.Index = target
				return lp, err
			}
		}},
		{"shortened path", false, func(int) func(ProofOpener, LeafProof) (LeafProof, error) {
			return func(_ ProofOpener, lp LeafProof) (LeafProof, error) {
				lp.Proof.Siblings = lp.Proof.Siblings[:len(lp.Proof.Siblings)-1]
				return lp, nil
			}
		}},
		{"digest swapped between leaves", true, func(target int) func(ProofOpener, LeafProof) (LeafProof, error) {
			return func(inner ProofOpener, lp LeafProof) (LeafProof, error) {
				// The first leaf whose committed digest differs from the
				// target's, so the swap really changes the payload.
				for i := 0; ; i++ {
					other, err := inner.OpenProof(i)
					if err != nil {
						return lp, err
					}
					if !bytes.Equal(other.Digest, lp.Digest) {
						lp.Digest = other.Digest
						return lp, nil
					}
				}
			}
		}},
	}
	// 30 steps checkpointed every 5 give 7 checkpoints, so 3 sampled
	// intervals leave an output leaf no other check pulls.
	long := func(p *TaskParams) { p.Steps = 30 }
	for _, scheme := range []Scheme{SchemeV1, SchemeV2} {
		worker, result, p, ref, ds := buildHonestSetupMerkle(t, scheme, true, long)
		verifier := func(workers int) *Verifier {
			device, err := gpu.NewDevice(gpu.G3090, 999)
			if err != nil {
				t.Fatal(err)
			}
			netV, _ := testTask(t, 10)
			return &Verifier{Scheme: scheme, Net: netV, Device: device, Beta: ref.Beta, LSH: ref.LSH,
				Samples: 3, Sampler: tensor.NewRNG(42), Workers: workers}
		}
		honest, err := verifier(0).VerifySubmission(worker, ds, result, p)
		if err != nil {
			t.Fatal(err)
		}
		if !honest.Accepted {
			t.Fatalf("%s: honest worker rejected: %s", scheme, honest.FailReason)
		}
		target := -1
		for _, c := range honest.SampledCheckpoints {
			out := c + 1
			if out != result.NumCheckpoints-1 && !slices.Contains(honest.SampledCheckpoints, out) {
				target = out
				break
			}
		}
		if target < 1 {
			t.Fatalf("%s: sampled %v leave no output-only leaf", scheme, honest.SampledCheckpoints)
		}
		want := fmt.Sprintf("checkpoint %d digest not committed", target)
		if scheme == SchemeV1 {
			want = fmt.Sprintf("checkpoint %d opening rejected", target)
		}
		for _, a := range attacks {
			if a.v2Only && scheme != SchemeV2 {
				continue
			}
			for _, workers := range []int{0, 4} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", scheme, a.name, workers), func(t *testing.T) {
					opener := &pullAttackOpener{inner: worker, target: target, attack: a.attack(target)}
					out, err := verifier(workers).VerifySubmission(opener, ds, result, p)
					if err != nil {
						t.Fatal(err)
					}
					if out.Accepted {
						t.Fatalf("forged pull of leaf %d accepted", target)
					}
					if !strings.Contains(out.FailReason, want) {
						t.Errorf("FailReason = %q, want it to contain %q", out.FailReason, want)
					}
				})
			}
		}
	}
}

// TestPullProofAuthenticates pins the structural guarantee directly: the
// material pullProof hands back has passed commitment.VerifyMerkle against
// the submitted root, for every leaf and both schemes.
func TestPullProofAuthenticates(t *testing.T) {
	for _, scheme := range []Scheme{SchemeV1, SchemeV2} {
		worker, result, _, verifier, _ := buildMerkleSetup(t, scheme)
		for idx := 0; idx < result.NumCheckpoints; idx++ {
			var v1Leaf []byte
			if scheme == SchemeV1 {
				w, err := worker.OpenCheckpoint(idx)
				if err != nil {
					t.Fatal(err)
				}
				v1Leaf = w.Encode()
			}
			leaf, err := verifier.pullProof(worker, result, idx, v1Leaf)
			if err != nil {
				t.Fatalf("%s leaf %d: honest pull rejected: %v", scheme, idx, err)
			}
			lp, err := worker.OpenProof(idx)
			if err != nil {
				t.Fatal(err)
			}
			if leaf.size != lp.Size() {
				t.Errorf("%s leaf %d: size %d, want %d", scheme, idx, leaf.size, lp.Size())
			}
			if scheme == SchemeV2 && !bytes.Equal(leaf.digest, lp.Digest) {
				t.Errorf("%s leaf %d: digest differs from the committed one", scheme, idx)
			}
			if scheme == SchemeV1 && leaf.digest != nil {
				t.Errorf("v1 leaf %d carries a digest", idx)
			}
			forged := &pullAttackOpener{inner: worker, target: idx,
				attack: func(_ ProofOpener, lp LeafProof) (LeafProof, error) {
					lp.Proof.Siblings[0] = commitment.Hash{}
					return lp, nil
				}}
			if _, err := verifier.pullProof(forged, result, idx, v1Leaf); err == nil {
				t.Errorf("%s leaf %d: zeroed sibling accepted", scheme, idx)
			}
		}
	}
}

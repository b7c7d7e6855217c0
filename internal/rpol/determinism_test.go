package rpol

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"rpol/internal/dataset"
	"rpol/internal/gpu"
)

// epochFingerprints runs one full RPoLv2 epoch — training, commitment,
// calibration, sampling, verification, aggregation — with the given Workers
// knob and condenses the result into two digests:
//
//   - train covers every protocol artifact: checkpoint traces, commitment
//     roots and leaves, LSH digests, submitted updates, acceptance flags,
//     and the aggregated global model;
//   - verify covers the verification accounting: sampled intervals,
//     fail reasons, comm bytes, re-executed steps, misses and double-checks.
//
// The split exists because the verification tallies depend on the device
// noise stream (serial verification threads one stream through all
// intervals; parallel verification forks one per interval), so they are
// only comparable within the chunked runtime (workers ≥ 1), while the
// training-side artifacts must agree everywhere.
func epochFingerprints(t *testing.T, workers int, merkle bool) (train, verify string) {
	t.Helper()
	const n = 4
	ds, err := dataset.Generate(dataset.Config{
		Name: "det", NumClasses: 4, Dim: 8, Size: 1200, ClusterStd: 0.4, Seed: 55,
	})
	if err != nil {
		t.Fatal(err)
	}
	shards, err := ds.Partition(n + 1)
	if err != nil {
		t.Fatal(err)
	}
	profiles := gpu.Profiles()
	pool := make([]*HonestWorker, n)
	workerIfs := make([]Worker, n)
	shardMap := make(map[string]*dataset.Dataset, n)
	for i := 0; i < n; i++ {
		net, _ := testTask(t, 30)
		id := "w" + string(rune('A'+i))
		w, err := NewHonestWorker(id, profiles[i%len(profiles)], int64(1000+i), net, shards[i])
		if err != nil {
			t.Fatal(err)
		}
		pool[i] = w
		workerIfs[i] = w
		shardMap[id] = shards[i]
	}
	managerNet, _ := testTask(t, 30)
	mgr, err := NewManager(ManagerConfig{
		Address:         "pool-manager",
		Scheme:          SchemeV2,
		Hyper:           Hyper{Optimizer: "sgdm", LR: 0.05, BatchSize: 8},
		StepsPerEpoch:   15,
		CheckpointEvery: 5,
		Samples:         3,
		GPU:             gpu.G3090,
		MasterKey:       []byte("master"),
		Seed:            99,
		Workers:         workers,
		MerkleCommit:    merkle,
	}, managerNet, workerIfs, shardMap, shards[n])
	if err != nil {
		t.Fatal(err)
	}
	report, err := mgr.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}

	ht := sha256.New()
	for _, w := range pool {
		for _, c := range w.lastTrace.Checkpoints {
			ht.Write(c.Encode())
		}
		res := w.lastResult
		if res.HasRoot {
			// Merkle submissions carry only the root; the retained epoch
			// commitment still exposes the per-leaf digests for hashing.
			ht.Write(res.MerkleRoot[:])
			for _, d := range w.lastCommit.Digests {
				ht.Write(d.Encode())
			}
		} else {
			root := res.Commit.Root()
			ht.Write(root[:])
			ht.Write(res.Commit.Encode())
			for _, d := range res.LSHDigests {
				ht.Write(d.Encode())
			}
		}
		ht.Write(res.Update.Encode())
	}
	for _, o := range report.Outcomes {
		fmt.Fprintf(ht, "%s/%v;", o.WorkerID, o.Accepted)
	}
	ht.Write(mgr.Global().Encode())

	hv := sha256.New()
	for _, o := range report.Outcomes {
		fmt.Fprintf(hv, "%s/%v/%q/%v/%d/%d/%d/%d;", o.WorkerID, o.Accepted, o.FailReason,
			o.SampledCheckpoints, o.CommBytes, o.ReexecSteps, o.LSHMisses, o.DoubleChecks)
	}
	return hex.EncodeToString(ht.Sum(nil)), hex.EncodeToString(hv.Sum(nil))
}

// TestEpochBitIdenticalAcrossWorkers is the protocol-wide determinism
// regression test for the data-parallel runtime: one epoch run at Workers =
// 1, 2, and 8 must produce bit-identical checkpoints, LSH digests,
// commitment roots, verification outcomes, and global model. Everything the
// protocol hashes or compares is covered, so any scheduling-dependent float
// reduction sneaking into a hot path fails this test (and trips the race
// detector in the -race CI job).
func TestEpochBitIdenticalAcrossWorkers(t *testing.T) {
	baseTrain, baseVerify := epochFingerprints(t, 1, false)
	for _, w := range []int{2, 8} {
		train, verify := epochFingerprints(t, w, false)
		if train != baseTrain {
			t.Errorf("workers=%d: training artifacts differ from workers=1", w)
		}
		if verify != baseVerify {
			t.Errorf("workers=%d: verification outcomes differ from workers=1", w)
		}
	}

	// The test nets are dense-only stacks, which train on the GEMM path at
	// Workers = 0 as well (without a pool), bitwise equal to the per-example
	// TrainBatch loop. Verification tallies are excluded: serial
	// verification threads one device-noise stream through all sampled
	// intervals while parallel verification forks a stream per interval, so
	// only the protocol artifacts and verdicts must agree here;
	// TestSerialVerifyFingerprintGolden pins the serial tallies.
	serialTrain, _ := epochFingerprints(t, 0, false)
	if serialTrain != baseTrain {
		t.Errorf("workers=0 (serial verifier) training artifacts differ from workers=1")
	}
}

// TestEpochBitIdenticalAcrossWorkersMerkle re-runs the determinism sweep with
// streaming Merkle commitments enabled: the wire format changes (32-byte root
// plus on-demand proof pulls instead of an inline hash list) but every
// protocol artifact — checkpoints, per-leaf digests, submitted updates,
// verdicts, global model — must stay bit-identical across Workers = 0/1/2/8,
// exactly as in the legacy sweep.
func TestEpochBitIdenticalAcrossWorkersMerkle(t *testing.T) {
	baseTrain, baseVerify := epochFingerprints(t, 1, true)
	for _, w := range []int{2, 8} {
		train, verify := epochFingerprints(t, w, true)
		if train != baseTrain {
			t.Errorf("merkle workers=%d: training artifacts differ from workers=1", w)
		}
		if verify != baseVerify {
			t.Errorf("merkle workers=%d: verification outcomes differ from workers=1", w)
		}
	}
	serialTrain, _ := epochFingerprints(t, 0, true)
	if serialTrain != baseTrain {
		t.Errorf("merkle workers=0 (serial verifier) training artifacts differ from workers=1")
	}
}

// TestSerialVerifyFingerprintGolden pins the Workers = 0 verification
// fingerprint, for both commitment forms, to the value the per-example
// TrainBatch runtime produced before dense stacks moved onto the GEMM path.
// Serial verification threads the manager device's one noise stream through
// every sampled interval, so any change to that stream, to the order of its
// draws, or to a single bit of a re-executed step moves the sampled
// intervals, comm bytes or verdicts hashed here and fails this test.
func TestSerialVerifyFingerprintGolden(t *testing.T) {
	golden := map[bool]struct{ train, verify string }{
		false: {
			train:  "1fa2e27e74ccb91482f7a57f7cdcbfb0c4b7589780c032a925c89c9abc05d42c",
			verify: "353d63492b2b6e54390d313332f1e9e4b9dc16a97542c99144e0c466e1e2dec0",
		},
		true: {
			train:  "384fafa6eea28abeda339ecdb5f9e4fd10a417a6bb0153a7d4699ffba5de9179",
			verify: "73bb5304a11bbb62dd294fa0444ca2cc8b73cc2584f264ddabe5026bab74e3cd",
		},
	}
	for _, merkle := range []bool{false, true} {
		train, verify := epochFingerprints(t, 0, merkle)
		if train != golden[merkle].train {
			t.Errorf("merkle=%v: workers=0 training fingerprint %s, want %s", merkle, train, golden[merkle].train)
		}
		if verify != golden[merkle].verify {
			t.Errorf("merkle=%v: workers=0 verification fingerprint %s, want %s", merkle, verify, golden[merkle].verify)
		}
	}
}

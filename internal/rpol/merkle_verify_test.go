package rpol

import (
	"strings"
	"testing"

	"rpol/internal/commitment"
	"rpol/internal/dataset"
	"rpol/internal/gpu"
	"rpol/internal/lsh"
	"rpol/internal/obs"
	"rpol/internal/tensor"
)

// buildMerkleSetup is buildHonestSetup with the streaming Merkle commitment
// switched on: the worker submits only the 32-byte root and serves inclusion
// proofs on demand.
func buildMerkleSetup(t *testing.T, scheme Scheme) (*HonestWorker, *EpochResult, TaskParams, *Verifier, *dataset.Dataset) {
	t.Helper()
	worker, result, p, verifier, ds := buildHonestSetupMerkle(t, scheme, true)
	return worker, result, p, verifier, ds
}

func TestVerifyHonestWorkerMerkleV1(t *testing.T) {
	worker, result, p, verifier, ds := buildMerkleSetup(t, SchemeV1)
	if !result.HasRoot {
		t.Fatal("merkle submission carries no root")
	}
	if result.Commit != nil || result.LSHDigests != nil {
		t.Fatal("merkle submission must not ship the inline hash list")
	}
	out, err := verifier.VerifySubmission(worker, ds, result, p)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Accepted {
		t.Fatalf("honest merkle worker rejected under v1: %s", out.FailReason)
	}
	// Commitment share: the root plus one validated pull per opening — two
	// binding checks and two (input, output) per sampled interval.
	lp, err := worker.OpenProof(0)
	if err != nil {
		t.Fatal(err)
	}
	q := int64(len(out.SampledCheckpoints))
	wantCommit := int64(commitment.HashSize) + (2+2*q)*int64(lp.Size())
	if out.CommitBytes != wantCommit {
		t.Errorf("CommitBytes = %d, want %d", out.CommitBytes, wantCommit)
	}
	// Raw openings on top: input and output weights per sampled interval.
	ws := int64(tensor.EncodedSize(len(p.Global)))
	if got, want := out.CommBytes, wantCommit+2*q*ws; got != want {
		t.Errorf("CommBytes = %d, want %d", got, want)
	}
}

func TestVerifyHonestWorkerMerkleV2(t *testing.T) {
	worker, result, p, verifier, ds := buildMerkleSetup(t, SchemeV2)
	out, err := verifier.VerifySubmission(worker, ds, result, p)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Accepted {
		t.Fatalf("honest merkle worker rejected under v2: %s", out.FailReason)
	}
	// v2 pulls ride the committed digest with every proof; raw weights move
	// only for each interval's input plus any double-checks.
	lp, err := worker.OpenProof(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(lp.Digest) == 0 {
		t.Fatal("v2 proof pull carries no digest")
	}
	q := int64(len(out.SampledCheckpoints))
	wantCommit := int64(commitment.HashSize) + (2+2*q)*int64(lp.Size())
	if out.CommitBytes != wantCommit {
		t.Errorf("CommitBytes = %d, want %d", out.CommitBytes, wantCommit)
	}
	ws := int64(tensor.EncodedSize(len(p.Global)))
	if got, want := out.CommBytes, wantCommit+(q+int64(out.DoubleChecks))*ws; got != want {
		t.Errorf("CommBytes = %d, want %d", got, want)
	}
}

func TestVerifyMerkleRejectsForgedOpening(t *testing.T) {
	worker, result, p, verifier, ds := buildMerkleSetup(t, SchemeV1)
	forged := tensor.NewRNG(1).NormalVector(len(p.Global), 0, 1)
	for target := 0; target < result.NumCheckpoints; target++ {
		opener := &forgingOpener{inner: worker, target: target, forged: forged}
		out, err := verifier.VerifySubmission(opener, ds, result, p)
		if err != nil {
			t.Fatal(err)
		}
		if out.Accepted {
			sampledForged := false
			for _, c := range out.SampledCheckpoints {
				if c == target || c+1 == target {
					sampledForged = true
				}
			}
			if sampledForged || target == 0 || target == result.NumCheckpoints-1 {
				t.Errorf("forged checkpoint %d accepted under merkle commitment", target)
			}
		}
	}
}

// wrongLeafOpener answers every proof pull with the proof for a different
// committed leaf — a worker trying to reuse a valid proof must be caught by
// the index binding, not just by hash mismatch.
type wrongLeafOpener struct{ inner ProofOpener }

func (o *wrongLeafOpener) OpenCheckpoint(idx int) (tensor.Vector, error) {
	return o.inner.OpenCheckpoint(idx)
}

func (o *wrongLeafOpener) OpenProof(idx int) (LeafProof, error) {
	return o.inner.OpenProof((idx + 1) % 4)
}

func TestVerifyMerkleRejectsWrongProofIndex(t *testing.T) {
	worker, result, p, verifier, ds := buildMerkleSetup(t, SchemeV1)
	out, err := verifier.VerifySubmission(&wrongLeafOpener{inner: worker}, ds, result, p)
	if err != nil {
		t.Fatal(err)
	}
	if out.Accepted {
		t.Fatal("proof answering the wrong leaf accepted")
	}
	if !strings.Contains(out.FailReason, "proof answers leaf") {
		t.Errorf("FailReason = %q, want the index-binding rejection", out.FailReason)
	}
}

// buildHonestSetupMerkle generalizes buildHonestSetup over the commitment
// scheme knob. Each mutate adjusts the task parameters before calibration
// and training.
func buildHonestSetupMerkle(t *testing.T, scheme Scheme, merkle bool, mutate ...func(*TaskParams)) (*HonestWorker, *EpochResult, TaskParams, *Verifier, *dataset.Dataset) {
	t.Helper()
	netW, ds := testTask(t, 10)
	worker, err := NewHonestWorker("w1", gpu.GA10, 101, netW, ds)
	if err != nil {
		t.Fatal(err)
	}
	p := testParams(netW.ParamVector())
	p.MerkleCommit = merkle
	for _, m := range mutate {
		m(&p)
	}

	var fam *lsh.Family
	beta := 0.05
	if scheme == SchemeV2 {
		netC, _ := testTask(t, 10)
		cal := &Calibrator{Net: netC, Shard: ds, XFactor: 5, KLsh: 16}
		calOut, f, err := cal.Calibrate(p, gpu.G3090, gpu.GA10, [2]int64{5, 6}, 7)
		if err != nil {
			t.Fatal(err)
		}
		fam = f
		beta = calOut.Beta
		p.LSH = fam
	}

	result, err := worker.RunEpoch(p)
	if err != nil {
		t.Fatal(err)
	}

	netV, _ := testTask(t, 10)
	device, err := gpu.NewDevice(gpu.G3090, 999)
	if err != nil {
		t.Fatal(err)
	}
	verifier := &Verifier{
		Scheme:  scheme,
		Net:     netV,
		Device:  device,
		Beta:    beta,
		LSH:     fam,
		Samples: 3,
		Sampler: tensor.NewRNG(42),
	}
	return worker, result, p, verifier, ds
}

// tamperedSubmission rebuilds an honest worker's trace with one mid-trace
// checkpoint replaced by random weights and re-commits it. The trace still
// starts at the global model and ends at the claimed final checkpoint, so
// both binding checks pass and rejection happens mid-sampling — exactly the
// shape that exercises the post-failure interval accounting.
func tamperedSubmission(t *testing.T, worker *HonestWorker, result *EpochResult, p TaskParams, fam *lsh.Family, merkle bool) (*traceOpener, *EpochResult) {
	t.Helper()
	fake := &Trace{}
	for i := 0; i < result.NumCheckpoints; i++ {
		cp, err := worker.OpenCheckpoint(i)
		if err != nil {
			t.Fatal(err)
		}
		fake.Checkpoints = append(fake.Checkpoints, cp.Clone())
		fake.Steps = append(fake.Steps, i*p.CheckpointEvery)
	}
	fake.Checkpoints[2] = tensor.NewRNG(9).NormalVector(len(p.Global), 0, 1)
	ec, err := CommitTrace(nil, fake.Checkpoints, fam, merkle)
	if err != nil {
		t.Fatal(err)
	}
	bad := &EpochResult{
		WorkerID: result.WorkerID, Epoch: result.Epoch, Update: result.Update,
		DataSize: result.DataSize, NumCheckpoints: result.NumCheckpoints,
	}
	ec.Apply(bad)
	return &traceOpener{trace: fake, fam: fam}, bad
}

// TestVerifyMetricsParitySerialParallel pins the serial/parallel accounting
// contract across every scheme and commitment form, for accepted and
// rejected submissions: the verdict, the outcome tallies (ReexecSteps,
// CommBytes, CommitBytes, LSHMisses, DoubleChecks), and the global
// rpol_reexec_steps_total / rpol_verify_comm_bytes_total counters must be
// identical — the parallel path must not account intervals that execute
// past the first failure.
func TestVerifyMetricsParitySerialParallel(t *testing.T) {
	for _, scheme := range []Scheme{SchemeV1, SchemeV2} {
		for _, merkle := range []bool{false, true} {
			for _, tampered := range []bool{false, true} {
				name := scheme.String()
				if merkle {
					name += "/merkle"
				} else {
					name += "/legacy"
				}
				if tampered {
					name += "/tampered"
				} else {
					name += "/honest"
				}
				t.Run(name, func(t *testing.T) {
					worker, result, p, ref, ds := buildHonestSetupMerkle(t, scheme, merkle)
					var opener ProofOpener = worker
					if tampered {
						opener, result = tamperedSubmission(t, worker, result, p, ref.LSH, merkle)
					}
					run := func(workers int) (*VerifyOutcome, int64, int64) {
						netV, _ := testTask(t, 10)
						device, err := gpu.NewDevice(gpu.G3090, 999)
						if err != nil {
							t.Fatal(err)
						}
						observer := obs.NewObserver(obs.NewRegistry(), nil)
						v := &Verifier{
							Scheme: scheme, Net: netV, Device: device, Beta: ref.Beta,
							LSH: ref.LSH, Samples: 3, Sampler: tensor.NewRNG(42),
							Workers: workers, Obs: observer,
						}
						out, err := v.VerifySubmission(opener, ds, result, p)
						if err != nil {
							t.Fatal(err)
						}
						return out,
							observer.Counter("rpol_reexec_steps_total").Value(),
							observer.Counter("rpol_verify_comm_bytes_total").Value()
					}
					serial, serialSteps, serialBytes := run(0)
					par, parSteps, parBytes := run(4)
					if tampered == serial.Accepted {
						t.Fatalf("serial verdict accepted=%v for tampered=%v (%s)",
							serial.Accepted, tampered, serial.FailReason)
					}
					if serial.Accepted != par.Accepted {
						t.Fatalf("verdicts diverge: serial=%v parallel=%v (%s / %s)",
							serial.Accepted, par.Accepted, serial.FailReason, par.FailReason)
					}
					if serial.ReexecSteps != par.ReexecSteps {
						t.Errorf("ReexecSteps: serial=%d parallel=%d", serial.ReexecSteps, par.ReexecSteps)
					}
					if serialSteps != parSteps {
						t.Errorf("rpol_reexec_steps_total: serial=%d parallel=%d", serialSteps, parSteps)
					}
					if int64(serial.ReexecSteps) != serialSteps {
						t.Errorf("outcome steps %d diverge from counter %d", serial.ReexecSteps, serialSteps)
					}
					if serial.CommBytes != par.CommBytes || serial.CommitBytes != par.CommitBytes {
						t.Errorf("bytes: serial=(%d,%d) parallel=(%d,%d)",
							serial.CommBytes, serial.CommitBytes, par.CommBytes, par.CommitBytes)
					}
					if serialBytes != parBytes {
						t.Errorf("rpol_verify_comm_bytes_total: serial=%d parallel=%d", serialBytes, parBytes)
					}
					if serial.LSHMisses != par.LSHMisses || serial.DoubleChecks != par.DoubleChecks {
						t.Errorf("lsh tallies: serial=(%d,%d) parallel=(%d,%d)",
							serial.LSHMisses, serial.DoubleChecks, par.LSHMisses, par.DoubleChecks)
					}
				})
			}
		}
	}
}

// TestVerifyRawOpeningBytesSchemeParity pins satellite accounting across
// commitment forms: for the same verdict, the raw weight bytes a verifier
// moves (CommBytes minus the commitment share) are identical whether the
// commitment was the legacy hash list or the streaming Merkle root.
func TestVerifyRawOpeningBytesSchemeParity(t *testing.T) {
	for _, scheme := range []Scheme{SchemeV1, SchemeV2} {
		raw := map[bool]int64{}
		for _, merkle := range []bool{false, true} {
			worker, result, p, verifier, ds := buildHonestSetupMerkle(t, scheme, merkle)
			out, err := verifier.VerifySubmission(worker, ds, result, p)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Accepted {
				t.Fatalf("%s merkle=%v rejected: %s", scheme, merkle, out.FailReason)
			}
			raw[merkle] = out.CommBytes - out.CommitBytes
		}
		if raw[false] != raw[true] {
			t.Errorf("%s: raw opening bytes legacy=%d merkle=%d", scheme, raw[false], raw[true])
		}
	}
}

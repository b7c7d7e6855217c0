package rpol

import (
	"testing"

	"rpol/internal/amlayer"
	"rpol/internal/dataset"
	"rpol/internal/gpu"
	"rpol/internal/modelzoo"
	"rpol/internal/nn"
	"rpol/internal/prf"
	"rpol/internal/tensor"
)

// proxyTask builds the named model-zoo proxy behind the pool's three-block
// AMLayer stack, as pool.New does with UseAMLayer.
func proxyTask(t *testing.T, name string) (*nn.Network, *dataset.Dataset) {
	t.Helper()
	spec, err := modelzoo.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	net, train, _, err := spec.BuildProxy(21)
	if err != nil {
		t.Fatal(err)
	}
	if spec.ProxyConv {
		return net, train
	}
	stack, err := amlayer.NewDenseStack("pool-manager", spec.ProxyDim, 3, amlayer.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if net, err = amlayer.PrependStack(stack, net); err != nil {
		t.Fatal(err)
	}
	return net, train
}

// TestTrainerRuntimeFollowsNetwork pins which step implementation a Trainer
// builds: the GEMM path for a dense stack at every Workers value, and for a
// convolutional stack the serial TrainBatch loop at Workers 0 and the
// chunked runtime at Workers ≥ 1.
func TestTrainerRuntimeFollowsNetwork(t *testing.T) {
	h := Hyper{Optimizer: "sgdm", LR: 0.05, BatchSize: 8}
	for _, c := range []struct {
		model   string
		workers int
		bt      bool
		gemm    bool
	}{
		{"resnet18-cifar10", 0, true, true},
		{"resnet18-cifar10", 1, true, true},
		{"resnet18-cifar10", 2, true, true},
		{"resnet18-cifar10-conv", 0, false, false},
		{"resnet18-cifar10-conv", 1, true, false},
	} {
		net, ds := proxyTask(t, c.model)
		tr := &Trainer{Net: net, Shard: ds, Workers: c.workers}
		if _, err := tr.ExecuteInterval(net.ParamVector(), 0, 1, h, 3); err != nil {
			t.Fatal(err)
		}
		if got := tr.bt != nil; got != c.bt {
			t.Errorf("%s workers=%d: batch trainer built = %v, want %v", c.model, c.workers, got, c.bt)
		}
		if got := tr.bt != nil && tr.bt.GEMM(); got != c.gemm {
			t.Errorf("%s workers=%d: GEMM path = %v, want %v", c.model, c.workers, got, c.gemm)
		}
	}
}

// TestExecuteIntervalMatchesSerialLoop checks the default runtime against
// the per-example loop it replaced, on the pool's default model with device
// noise: every weight of a re-executed interval must be bit-identical to
// Network.TrainBatch driven step by step, at Workers 0 and 2.
func TestExecuteIntervalMatchesSerialLoop(t *testing.T) {
	const steps, nonce = 7, prf.Nonce(77)
	h := Hyper{Optimizer: "sgdm", LR: 0.05, BatchSize: 32}
	ref, ds := proxyTask(t, "resnet18-cifar10")
	start := ref.ParamVector()
	device, err := gpu.NewDevice(gpu.G3090, 5)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := nn.NewOptimizer(h.Optimizer, h.LR)
	if err != nil {
		t.Fatal(err)
	}
	schedule := prf.NewFromNonce(nonce)
	for s := 0; s < steps; s++ {
		idxs, err := schedule.BatchIndices(s, h.BatchSize, ds.Len())
		if err != nil {
			t.Fatal(err)
		}
		xs := make([]tensor.Vector, len(idxs))
		labels := make([]int, len(idxs))
		for i, idx := range idxs {
			xs[i], labels[i] = ds.Examples[idx].Features, ds.Examples[idx].Label
		}
		if _, err := ref.TrainBatch(xs, labels, opt); err != nil {
			t.Fatal(err)
		}
		for _, p := range ref.Params() {
			device.Perturb(p)
		}
	}
	want := ref.ParamVector()

	for _, workers := range []int{0, 2} {
		net, _ := proxyTask(t, "resnet18-cifar10")
		device, err := gpu.NewDevice(gpu.G3090, 5)
		if err != nil {
			t.Fatal(err)
		}
		tr := &Trainer{Net: net, Shard: ds, Device: device, Workers: workers}
		got, err := tr.ExecuteInterval(start, 0, steps, h, nonce)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want, 0) {
			t.Errorf("workers=%d: interval differs from the serial TrainBatch loop", workers)
		}
	}
}

// TestExecuteIntervalSteadyStateAllocs proves the default runtime is the
// fast one: at Workers 0 on the pool's default model, a re-executed interval
// after warm-up allocates nothing but the weight vector it returns. The
// per-example TrainBatch loop, a per-call optimizer or batch schedule, or a
// rebuilt replica would each show up here.
func TestExecuteIntervalSteadyStateAllocs(t *testing.T) {
	net, ds := proxyTask(t, "resnet18-cifar10")
	device, err := gpu.NewDevice(gpu.G3090, 8)
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trainer{Net: net, Shard: ds, Device: device}
	h := Hyper{Optimizer: "sgdm", LR: 0.05, BatchSize: 32}
	start := net.ParamVector()
	run := func() {
		if _, err := tr.ExecuteInterval(start, 5, 5, h, 9); err != nil {
			t.Fatal(err)
		}
	}
	run()
	run()
	if tr.bt == nil || !tr.bt.GEMM() {
		t.Fatal("dense proxy at Workers 0 is not on the GEMM path")
	}
	if allocs := testing.AllocsPerRun(10, run); allocs != 1 {
		t.Errorf("ExecuteInterval allocates %.0f times per interval after warm-up, want 1 (the returned weights)", allocs)
	}
}

// TestManagerKeepsOneTrainer pins trainer reuse on the manager: calibration
// and serial re-execution share one Trainer, and a second epoch's
// calibration and VerifySubmission calls build no new replica.
func TestManagerKeepsOneTrainer(t *testing.T) {
	mgr := buildPool(t, SchemeV2, 3)
	if _, err := mgr.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	bt := mgr.trainer.bt
	if bt == nil || !bt.GEMM() {
		t.Fatal("manager's trainer is not on the GEMM path after an epoch")
	}
	report, err := mgr.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if report.ReexecSteps == 0 {
		t.Fatal("second epoch re-executed nothing")
	}
	// Verification runs after calibration and re-points the trainer at each
	// submission's shard, so a trainer still on the probe shard means the
	// verifier re-executed on a trainer of its own.
	if mgr.trainer.Shard == mgr.probe {
		t.Error("verification did not re-execute on the manager's trainer")
	}
	if mgr.trainer.bt != bt {
		t.Error("second epoch rebuilt the re-execution trainer's replica")
	}
}

// TestVerifierKeepsOneTrainer: a second VerifySubmission on the same
// verifier re-executes on the first call's replica.
func TestVerifierKeepsOneTrainer(t *testing.T) {
	worker, result, p, verifier, ds := buildHonestSetup(t, SchemeV2)
	verify := func() {
		out, err := verifier.VerifySubmission(worker, ds, result, p)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Accepted {
			t.Fatalf("honest worker rejected: %s", out.FailReason)
		}
	}
	verify()
	bt := verifier.reexec.bt
	if bt == nil || !bt.GEMM() {
		t.Fatal("verifier's trainer is not on the GEMM path")
	}
	verify()
	if verifier.reexec.bt != bt {
		t.Error("second VerifySubmission rebuilt the re-execution replica")
	}
}

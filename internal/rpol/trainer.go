package rpol

import (
	"fmt"
	"slices"

	"rpol/internal/dataset"
	"rpol/internal/gpu"
	"rpol/internal/nn"
	"rpol/internal/obs"
	"rpol/internal/parallel"
	"rpol/internal/prf"
	"rpol/internal/tensor"
)

// Trainer executes the mini-batch stochastic-yet-deterministic gradient
// descent of Sec. V-B over a worker's shard: batch m consists of the
// elements PRF(N·m + n) mod |D_w|, so the manager can re-execute any step
// bit-for-bit (up to hardware noise) during verification.
//
// Optimizer state (momentum, second moments) is reset at every checkpoint
// boundary so that each checkpoint interval is a self-contained function of
// its starting weights — otherwise the manager could not re-execute a
// sampled interval without also receiving the optimizer state. This is the
// one protocol detail the paper leaves implicit; see DESIGN.md.
type Trainer struct {
	// Net is the model architecture; its parameters are overwritten by the
	// weights being trained.
	Net *nn.Network
	// Shard is the worker's sub-dataset D_w.
	Shard *dataset.Dataset
	// Device injects per-step hardware noise; nil trains noiselessly (used
	// in tests).
	Device *gpu.Device
	// Steps, when set, counts every executed training step. The owner wires
	// the counter that names the work correctly — rpol_train_steps_total for
	// workers, rpol_reexec_steps_total for verification re-execution,
	// rpol_probe_steps_total for calibration probes — so one trainer type
	// serves all three without double counting.
	Steps *obs.Counter
	// Workers sizes the training runtime's compute pool; n ≤ 0 means none.
	// Networks whose layers are all batch-capable (dense stacks) train every
	// batch through nn.BatchTrainer's GEMM path at any n, bit-identical to
	// Network.TrainBatch. Other networks (convolutional) keep the serial
	// TrainBatch loop at n ≤ 0 and train through the chunked runtime at
	// n ≥ 1, whose results are bit-identical for every n ≥ 1. RunEpoch adopts
	// the task's TaskParams.Workers; verification sets the field directly.
	Workers int
	// Sink, when set, receives every checkpoint the moment RunEpoch snapshots
	// it (index 0 carries the initial weights). Workers use it to stream
	// checkpoints to durable storage as they are produced, so a crash loses
	// at most the interval in flight. A Sink error aborts the epoch.
	Sink func(idx, step int, w tensor.Vector) error

	// Training runtime, built on the first step for runtimeNet and kept
	// across intervals and epochs: bt is nil when the network trains through
	// the serial TrainBatch loop; params caches the network's parameter
	// tensors.
	runtimeNet *nn.Network
	bt         *nn.BatchTrainer
	params     []tensor.Vector
	numParams  int

	// Per-interval scratch reused across calls: the optimizer (reset at
	// every interval), the batch schedule of the last nonce, and the batch.
	opt        nn.Optimizer
	optHyper   Hyper
	sched      *prf.PRF
	schedNonce prf.Nonce
	idxs       []int
	xs         []tensor.Vector
	labels     []int
}

// reuseTrainer returns *t, created on first use, re-pointed at the given
// network, shard, device and step counter. The trainer keeps the runtime it
// built for net, so callers that train on one network again and again pay
// for its replica and scratch once.
func reuseTrainer(t **Trainer, net *nn.Network, shard *dataset.Dataset, device *gpu.Device, steps *obs.Counter) *Trainer {
	if *t == nil {
		*t = &Trainer{}
	}
	tr := *t
	tr.Net, tr.Shard, tr.Device, tr.Steps = net, shard, device, steps
	return tr
}

// SetWorkers reconfigures the training runtime, discarding any runtime built
// for a previous worker count. Results are unchanged for any n ≥ 1, and on
// dense stacks for any n.
func (t *Trainer) SetWorkers(n int) {
	if n == t.Workers {
		return
	}
	t.Workers = n
	t.runtimeNet = nil
}

// runtime builds the step implementation for Net on first use, or again
// after Net or Workers changed. Which one it picks depends on the network,
// not on Workers: a dense stack always gets the GEMM trainer (with a nil
// pool at Workers ≤ 0); another network gets the chunked trainer only at
// Workers ≥ 1 and the serial TrainBatch loop otherwise.
func (t *Trainer) runtime() error {
	if t.runtimeNet == t.Net {
		return nil
	}
	var pool *parallel.Pool
	if t.Workers >= 1 {
		pool = parallel.New(t.Workers)
	}
	bt, err := nn.NewBatchTrainer(t.Net, pool)
	if err != nil && pool != nil {
		return fmt.Errorf("rpol parallel trainer: %w", err)
	}
	if err != nil || (pool == nil && !bt.GEMM()) {
		bt = nil // the serial TrainBatch loop
	}
	t.bt = bt
	t.params = t.Net.Params()
	t.numParams = 0
	for _, p := range t.params {
		t.numParams += len(p)
	}
	t.runtimeNet = t.Net
	return nil
}

// trainStep runs one optimization step through the runtime built for Net.
func (t *Trainer) trainStep(xs []tensor.Vector, labels []int, opt nn.Optimizer) (float64, error) {
	if t.bt == nil {
		return t.Net.TrainBatch(xs, labels, opt)
	}
	return t.bt.TrainBatch(xs, labels, opt)
}

// optimizer returns a freshly reset optimizer for h, reusing the previous
// interval's state buffers when the hyper-parameters are unchanged.
func (t *Trainer) optimizer(h Hyper) (nn.Optimizer, error) {
	if t.opt != nil && t.optHyper == h {
		t.opt.Reset()
		return t.opt, nil
	}
	opt, err := nn.NewOptimizer(h.Optimizer, h.LR)
	if err != nil {
		return nil, err
	}
	t.opt, t.optHyper = opt, h
	return opt, nil
}

// batch materializes the deterministic batch for the given step into the
// trainer's reused batch buffers.
func (t *Trainer) batch(step, batchSize int) ([]tensor.Vector, []int, error) {
	idxs, err := t.sched.BatchIndicesInto(t.idxs, step, batchSize, t.Shard.Len())
	if err != nil {
		return nil, nil, fmt.Errorf("rpol batch at step %d: %w", step, err)
	}
	t.idxs = idxs
	t.xs = slices.Grow(t.xs[:0], len(idxs))[:len(idxs)]
	t.labels = slices.Grow(t.labels[:0], len(idxs))[:len(idxs)]
	for i, idx := range idxs {
		ex, err := t.Shard.At(idx)
		if err != nil {
			return nil, nil, fmt.Errorf("rpol batch at step %d: %w", step, err)
		}
		t.xs[i] = ex.Features
		t.labels[i] = ex.Label
	}
	return t.xs, t.labels, nil
}

// ExecuteInterval trains from `start` weights for `steps` steps beginning at
// training step startStep, returning the resulting weights. It is used both
// by workers (per checkpoint interval) and by the manager when re-executing
// a sampled interval during verification.
func (t *Trainer) ExecuteInterval(start tensor.Vector, startStep, steps int, h Hyper, nonce prf.Nonce) (tensor.Vector, error) {
	if err := t.runtime(); err != nil {
		return nil, err
	}
	if len(start) != t.numParams {
		return nil, fmt.Errorf("rpol interval: start has %d weights, want %d: %w",
			len(start), t.numParams, tensor.ErrShapeMismatch)
	}
	off := 0
	for _, param := range t.params {
		off += copy(param, start[off:])
	}
	opt, err := t.optimizer(h)
	if err != nil {
		return nil, fmt.Errorf("rpol interval: %w", err)
	}
	if t.sched == nil || t.schedNonce != nonce {
		t.sched, t.schedNonce = prf.NewFromNonce(nonce), nonce
	}
	for s := 0; s < steps; s++ {
		xs, labels, err := t.batch(startStep+s, h.BatchSize)
		if err != nil {
			return nil, err
		}
		if _, err := t.trainStep(xs, labels, opt); err != nil {
			return nil, fmt.Errorf("rpol interval step %d: %w", startStep+s, err)
		}
		if t.Device != nil {
			for _, param := range t.params {
				t.Device.Perturb(param)
			}
		}
	}
	t.Steps.Add(int64(steps))
	out := make(tensor.Vector, 0, t.numParams)
	for _, param := range t.params {
		out = append(out, param...)
	}
	return out, nil
}

// RunEpoch trains a full epoch per the task parameters, snapshotting
// checkpoints every CheckpointEvery steps (including the initial weights
// and the final weights). It returns the trace of snapshots.
func (t *Trainer) RunEpoch(p TaskParams) (*Trace, error) {
	return t.ResumeEpoch(p, nil)
}

// ResumeEpoch is RunEpoch continuing from an already-trained prefix of the
// same epoch (recovered checkpoints). The prefix's snapshots are adopted
// verbatim — the Sink sees only checkpoints produced by this call — and
// training restarts at the prefix's last step. Optimizer state resets at
// every checkpoint boundary and batches are a pure function of the step
// index, so a prefix-resumed epoch is bit-identical to an uninterrupted one
// provided the Device's noise stream was fast-forwarded (FastForward) past
// the prefix's steps. A nil or empty prefix is a fresh epoch.
func (t *Trainer) ResumeEpoch(p TaskParams, prefix *Trace) (*Trace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	t.SetWorkers(p.Workers)
	trace := &Trace{}
	if prefix != nil && len(prefix.Checkpoints) > 0 {
		if len(prefix.Checkpoints) != len(prefix.Steps) {
			return nil, fmt.Errorf("rpol resume: prefix has %d checkpoints, %d steps",
				len(prefix.Checkpoints), len(prefix.Steps))
		}
		for i, w := range prefix.Checkpoints {
			trace.Checkpoints = append(trace.Checkpoints, w.Clone())
			trace.Steps = append(trace.Steps, prefix.Steps[i])
		}
	} else {
		trace.Checkpoints = []tensor.Vector{p.Global.Clone()}
		trace.Steps = []int{0}
		if err := t.emit(trace); err != nil {
			return nil, err
		}
	}
	// ExecuteInterval only reads its start weights and returns a fresh
	// vector, so each checkpoint is appended as returned, without a copy.
	cur := trace.Checkpoints[len(trace.Checkpoints)-1]
	step := trace.Steps[len(trace.Steps)-1]
	for step < p.Steps {
		interval := p.CheckpointEvery
		if step+interval > p.Steps {
			interval = p.Steps - step
		}
		next, err := t.ExecuteInterval(cur, step, interval, p.Hyper, p.Nonce)
		if err != nil {
			return nil, err
		}
		step += interval
		cur = next
		trace.Checkpoints = append(trace.Checkpoints, cur)
		trace.Steps = append(trace.Steps, step)
		if err := t.emit(trace); err != nil {
			return nil, err
		}
	}
	return trace, nil
}

// emit streams the trace's newest checkpoint to the Sink, if any.
func (t *Trainer) emit(trace *Trace) error {
	if t.Sink == nil {
		return nil
	}
	idx := len(trace.Checkpoints) - 1
	if err := t.Sink(idx, trace.Steps[idx], trace.Checkpoints[idx]); err != nil {
		return fmt.Errorf("rpol checkpoint sink at %d: %w", idx, err)
	}
	return nil
}

// FastForward advances the trainer's device noise stream past the given
// number of already-executed training steps without training. Each live
// step perturbs every parameter tensor once, so the skip replays exactly
// that pattern. No-op without a device.
func (t *Trainer) FastForward(steps int) {
	if t.Device == nil {
		return
	}
	params := t.Net.Params()
	for s := 0; s < steps; s++ {
		for _, p := range params {
			t.Device.SkipPerturb(len(p))
		}
	}
}

// Final returns the last checkpoint of the trace (the epoch's final
// weights).
func (tr *Trace) Final() tensor.Vector {
	if len(tr.Checkpoints) == 0 {
		return nil
	}
	return tr.Checkpoints[len(tr.Checkpoints)-1]
}

// Update computes the local model update L = final − initial submitted for
// aggregation (Eq. 1).
func (tr *Trace) Update() (tensor.Vector, error) {
	if len(tr.Checkpoints) < 2 {
		return nil, fmt.Errorf("rpol: trace has %d checkpoints", len(tr.Checkpoints))
	}
	return tr.Final().Sub(tr.Checkpoints[0])
}

// BindFinalCheckpoint computes the update L = final − θ_t and rewrites the
// trace's final checkpoint as θ_t + L before the trace is committed.
//
// The rewrite exists because the verifier binds the submitted update to the
// commitment by reconstructing θ_t + L and hashing it — and floating-point
// addition does not exactly invert subtraction (fl(g + fl(f−g)) can differ
// from f by an ulp). Re-adding the computed update on the worker's side
// makes the committed bytes identical to the verifier's reconstruction,
// while perturbing the actual final weights by at most one ulp per element
// — orders of magnitude below any reproduction-error tolerance β.
func BindFinalCheckpoint(tr *Trace, global tensor.Vector) (tensor.Vector, error) {
	if len(tr.Checkpoints) < 2 {
		return nil, fmt.Errorf("rpol: trace has %d checkpoints", len(tr.Checkpoints))
	}
	update, err := tr.Final().Sub(global)
	if err != nil {
		return nil, fmt.Errorf("rpol bind final: %w", err)
	}
	bound, err := global.Add(update)
	if err != nil {
		return nil, fmt.Errorf("rpol bind final: %w", err)
	}
	tr.Checkpoints[len(tr.Checkpoints)-1] = bound
	return update, nil
}

// IntervalSteps returns the number of training steps between checkpoint idx
// and idx+1.
func (tr *Trace) IntervalSteps(idx int) (startStep, steps int, err error) {
	if idx < 0 || idx+1 >= len(tr.Steps) {
		return 0, 0, fmt.Errorf("rpol: interval %d of %d checkpoints", idx, len(tr.Steps))
	}
	return tr.Steps[idx], tr.Steps[idx+1] - tr.Steps[idx], nil
}

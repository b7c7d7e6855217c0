package nn

import (
	"fmt"

	"rpol/internal/parallel"
	"rpol/internal/tensor"
)

// Replicable is implemented by layers that can produce an independent copy
// of themselves for use on another goroutine. With shareParams=true the
// replica aliases the source's parameter storage (weights are read-only
// during forward/backward, so batch-parallel replicas can share them) while
// owning private gradient buffers and caches. With shareParams=false the
// replica is a full deep copy — detached networks for verifier re-execution.
//
// Every layer shipped by this package implements Replicable; the interface
// exists so Network.Replicate can reject third-party layers that would race.
type Replicable interface {
	Layer
	Replicate(shareParams bool) Layer
}

// scratchLayer is implemented by layers that can take an optional arena for
// transient forward/backward buffers.
type scratchLayer interface {
	setScratch(a *parallel.Arena)
}

// Replicate returns a Dense sharing (or copying) W and B with private
// gradient buffers. A frozen layer accumulates no gradients, so its replica
// gets none.
func (d *Dense) Replicate(shareParams bool) Layer {
	r := &Dense{W: d.W, B: d.B, Frozen: d.Frozen}
	if !d.Frozen {
		r.GradW = tensor.NewMatrix(d.W.Rows, d.W.Cols)
		r.GradB = tensor.NewVector(len(d.B))
	}
	if !shareParams {
		r.W = d.W.Clone()
		r.B = d.B.Clone()
	}
	return r
}

func (d *Dense) setScratch(a *parallel.Arena) { d.scratch = a }

// Replicate returns a fresh ReLU of the same width.
func (r *ReLU) Replicate(bool) Layer { return &ReLU{dim: r.dim} }

func (r *ReLU) setScratch(a *parallel.Arena) { r.scratch = a }

// Replicate wraps a replica of the inner layer. It panics if the inner layer
// is not Replicable; Network.Replicate surfaces that as an error before any
// replica is used.
func (r *Residual) Replicate(shareParams bool) Layer {
	inner, ok := r.Inner.(Replicable)
	if !ok {
		panic(fmt.Sprintf("nn: residual inner layer %s is not replicable", r.Inner.Name()))
	}
	return &Residual{Inner: inner.Replicate(shareParams)}
}

func (r *Residual) setScratch(a *parallel.Arena) {
	if s, ok := r.Inner.(scratchLayer); ok {
		s.setScratch(a)
	}
}

// Replicate returns a Conv2D sharing (or copying) the kernel and bias with
// private gradient buffers.
func (c *Conv2D) Replicate(shareParams bool) Layer {
	r := &Conv2D{
		InC: c.InC, InH: c.InH, InW: c.InW,
		OutC: c.OutC, K: c.K, Pad: c.Pad,
		W: c.W, B: c.B,
		GradW:  tensor.NewVector(len(c.GradW)),
		GradB:  tensor.NewVector(len(c.GradB)),
		Frozen: c.Frozen,
	}
	if !shareParams {
		r.W = c.W.Clone()
		r.B = c.B.Clone()
	}
	return r
}

func (c *Conv2D) setScratch(a *parallel.Arena) { c.scratch = a }

// Replicate returns a LayerNorm sharing (or copying) γ and b with private
// gradient buffers.
func (l *LayerNorm) Replicate(shareParams bool) Layer {
	r := &LayerNorm{
		Gamma: l.Gamma, Beta: l.Beta,
		GradGamma: tensor.NewVector(len(l.GradGamma)),
		GradBeta:  tensor.NewVector(len(l.GradBeta)),
		Eps:       l.Eps,
		Frozen:    l.Frozen,
	}
	if !shareParams {
		r.Gamma = l.Gamma.Clone()
		r.Beta = l.Beta.Clone()
	}
	return r
}

func (l *LayerNorm) setScratch(a *parallel.Arena) { l.scratch = a }

// Replicate returns a fresh MaxPool2D of the same geometry.
func (m *MaxPool2D) Replicate(bool) Layer {
	return &MaxPool2D{C: m.C, H: m.H, W: m.W, Window: m.Window}
}

func (m *MaxPool2D) setScratch(a *parallel.Arena) { m.scratch = a }

// Replicate returns a structural copy of the network. shareParams=true
// yields a batch-parallel replica: parameter storage is aliased (writes to
// the source's weights are visible, e.g. an optimizer step between batches)
// while gradients and forward caches are private. shareParams=false yields a
// fully detached deep copy, the form verifier re-execution uses so
// concurrent interval replays cannot touch each other's weights.
//
// The replica snapshots the layer graph at call time: architecture mutations
// on the source afterwards (e.g. amlayer.ReplaceDense swapping a residual's
// inner layer) are NOT reflected — replicate after the architecture is
// final.
func (n *Network) Replicate(shareParams bool) (*Network, error) {
	layers := make([]Layer, len(n.Layers))
	for i, l := range n.Layers {
		r, ok := l.(Replicable)
		if !ok {
			return nil, fmt.Errorf("nn: layer %d (%s) does not support replication", i, l.Name())
		}
		layers[i] = r.Replicate(shareParams)
	}
	return &Network{Layers: layers}, nil
}

// setScratch installs an arena on every layer that supports one. Only
// replica networks get arenas: their buffers are recycled after each
// example, an ownership discipline the package controls internally.
func (n *Network) setScratch(a *parallel.Arena) {
	for _, l := range n.Layers {
		if s, ok := l.(scratchLayer); ok {
			s.setScratch(a)
		}
	}
}

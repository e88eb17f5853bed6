package core

import (
	"fmt"

	"repro/internal/decomp"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Ensemble is the set of trained per-subdomain networks plus the
// partition they were trained on: the unit of parallel inference
// (§III "Inference").
type Ensemble struct {
	Partition *decomp.Partition
	ModelCfg  model.Config
	Models    []*nn.Sequential
	// Window is the temporal window the networks were trained with
	// (0 or 1 = single frame). With Window = k, inference consumes the
	// last k states stacked along the channel axis.
	Window int
}

// window returns the effective temporal window (≥ 1).
func (e *Ensemble) window() int {
	if e.Window <= 1 {
		return 1
	}
	return e.Window
}

// Validate reports structural problems.
func (e *Ensemble) Validate() error {
	if e.Partition == nil {
		return fmt.Errorf("core: ensemble without partition")
	}
	if len(e.Models) != e.Partition.Ranks() {
		return fmt.Errorf("core: ensemble has %d models for %d ranks", len(e.Models), e.Partition.Ranks())
	}
	for r, m := range e.Models {
		if m == nil {
			return fmt.Errorf("core: ensemble model %d is nil", r)
		}
	}
	return nil
}

// SerialRollout runs autoregressive inference with a single
// whole-domain network, the P = 1 reference.
func SerialRollout(net *nn.Sequential, cfg model.Config, initial *tensor.Tensor, steps int) ([]*tensor.Tensor, error) {
	if cfg.Strategy == model.InnerCrop {
		return nil, fmt.Errorf("core: inner-crop strategy cannot roll out")
	}
	if steps <= 0 {
		return nil, fmt.Errorf("core: non-positive rollout steps %d", steps)
	}
	c, h, w := initial.Dim(0), initial.Dim(1), initial.Dim(2)
	halo := cfg.Halo()
	state := initial.Clone().Reshape(1, c, h, w)
	net.SetScratch(nn.NewArena())
	out := make([]*tensor.Tensor, steps)
	for s := 0; s < steps; s++ {
		in := state
		if halo > 0 {
			// A single domain has no neighbours: zero-pad, exactly
			// what the subdomain networks see at physical boundaries.
			in = tensor.Pad2D(state, halo)
		}
		state = net.Forward(in)
		out[s] = state.Clone().Reshape(c, h, w)
	}
	return out, nil
}

package core

import (
	"fmt"

	"repro/internal/decomp"
	"repro/internal/model"
	"repro/internal/nn"
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

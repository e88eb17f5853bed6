// Package core implements the paper's contribution: the
// communication-free parallel training scheme (§III) in which each
// spatial subdomain gets its own independent CNN and MPI rank, the
// matching parallel inference engine with point-to-point halo
// exchange, and the baselines it is evaluated against (whole-domain
// sequential training and Viviani-style data-parallel weight
// averaging [4]).
package core

import (
	"fmt"
	"time"

	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/loss"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/opt"
)

// TrainConfig collects everything needed to train one per-subdomain
// network. The zero value is not usable; start from DefaultTrainConfig.
type TrainConfig struct {
	// Model is the network architecture (paper Table I by default).
	Model model.Config
	// Epochs is the number of full passes over the training pairs.
	Epochs int
	// BatchSize is the mini-batch size (0 = full batch).
	BatchSize int
	// Optimizer selects "adam" (paper's choice), "sgd", "momentum" or
	// "rmsprop".
	Optimizer string
	// LR is the base learning rate (0 = the paper's η = 0.01).
	LR float64
	// Loss selects "mape" (paper Eq. 7), "mse", "mae", "smape" or
	// "huber".
	Loss string
	// Schedule optionally varies the learning rate per epoch.
	Schedule opt.Schedule
	// Seed drives mini-batch shuffling (per-rank seeds are derived).
	Seed int64
	// ClipNorm caps the global gradient norm (0 = off).
	ClipNorm float64
	// Shuffle enables mini-batch shuffling (recommended).
	Shuffle bool
	// TemporalWindow stacks this many consecutive snapshots along the
	// channel axis as the network input (0 or 1 = single frame, the
	// paper's setup). Values > 1 implement the paper's §V future-work
	// direction of feeding time-series; Model.Channels[0] must then be
	// window · grid.NumChannels.
	TemporalWindow int
	// Workers enables intra-layer parallelism inside each rank's
	// convolution kernels (0 or 1 = single-threaded, the default the
	// critical-path timing model assumes; see DESIGN.md §5). Results
	// are bit-identical for any value, so this only trades goroutines
	// for per-rank wall-clock on multi-core nodes.
	Workers int
}

// DefaultTrainConfig returns the paper's training setup: Table-I CNN,
// ADAM with η = 0.01, MAPE loss.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Model:     model.PaperConfig(),
		Epochs:    40,
		BatchSize: 8,
		Optimizer: "adam",
		LR:        0.01,
		Loss:      "mape",
		Seed:      1,
		Shuffle:   true,
	}
}

// Validate reports configuration errors.
func (c TrainConfig) Validate() error {
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if c.Epochs <= 0 {
		return fmt.Errorf("core: non-positive epochs %d", c.Epochs)
	}
	if c.BatchSize < 0 {
		return fmt.Errorf("core: negative batch size %d", c.BatchSize)
	}
	if c.TemporalWindow < 0 {
		return fmt.Errorf("core: negative temporal window %d", c.TemporalWindow)
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: negative workers %d", c.Workers)
	}
	if w := c.Window(); c.Model.Channels[0] != w*grid.NumChannels {
		return fmt.Errorf("core: temporal window %d needs %d input channels, model has %d",
			w, w*grid.NumChannels, c.Model.Channels[0])
	}
	if _, err := NewOptimizer(c.Optimizer, c.lr()); err != nil {
		return err
	}
	if _, err := NewLoss(c.Loss); err != nil {
		return err
	}
	return nil
}

// Window returns the effective temporal window (≥ 1).
func (c TrainConfig) Window() int {
	if c.TemporalWindow <= 1 {
		return 1
	}
	return c.TemporalWindow
}

func (c TrainConfig) lr() float64 {
	if c.LR > 0 {
		return c.LR
	}
	return 0.01 // paper §II: suggested global learning rate
}

// NewOptimizer builds an optimizer by name.
func NewOptimizer(name string, lr float64) (opt.Optimizer, error) {
	switch name {
	case "", "adam":
		return opt.NewAdam(lr, 0.9, 0.999, 1e-8), nil
	case "sgd":
		return opt.NewSGD(lr), nil
	case "momentum":
		return opt.NewMomentum(lr, 0.9), nil
	case "rmsprop":
		return opt.NewRMSProp(lr, 0.9, 1e-8), nil
	}
	return nil, fmt.Errorf("core: unknown optimizer %q", name)
}

// NewLoss builds a loss by name.
func NewLoss(name string) (loss.Loss, error) {
	switch name {
	case "", "mape":
		return loss.NewMAPE(), nil
	case "mse":
		return loss.MSE{}, nil
	case "mae":
		return loss.MAE{}, nil
	case "smape":
		return loss.NewSMAPE(), nil
	case "huber":
		return loss.NewHuber(), nil
	}
	return nil, fmt.Errorf("core: unknown loss %q", name)
}

// RankResult is the outcome of training one subdomain network.
type RankResult struct {
	Rank  int
	Block decomp.Block
	// Model is the trained network for this subdomain.
	Model *nn.Sequential
	// History is the per-epoch mean training loss.
	History []float64
	// Seconds is this rank's own compute time. In critical-path mode
	// ranks execute one at a time, so this is an uncontended
	// single-core measurement — exactly the per-rank time a cluster
	// node would take (see DESIGN.md §5).
	Seconds float64
}

// FinalLoss returns the last epoch's training loss.
func (r *RankResult) FinalLoss() float64 {
	if len(r.History) == 0 {
		return 0
	}
	return r.History[len(r.History)-1]
}

// measure runs f and returns its wall-clock duration in seconds.
func measure(f func()) float64 {
	t0 := time.Now()
	f()
	return time.Since(t0).Seconds()
}

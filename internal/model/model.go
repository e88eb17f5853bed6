// Package model builds the paper's per-subdomain network: the Table-I
// CNN with channels 4→6→16→6→4, 5×5 kernels and leaky-ReLU (ε = 0.01)
// activations, in each of the four §III variants for handling the
// spatial shrinkage of valid convolutions:
//
//  1. ZeroPad — every layer zero-padded to "same" size (paper
//     approach 1, their default).
//  2. NeighborPad — the first layer consumes a halo of real data from
//     neighbouring subdomains ((K-1)/2 points per side) with a valid
//     convolution; deeper layers are zero-padded (approach 2).
//  3. InnerCrop — all layers valid; only the inner window of the
//     target is compared (approach 3, which the paper rejects because
//     interface data would be missing from the prediction).
//  4. TransposeConv — all layers valid, followed by one transpose
//     convolution restoring the full size (approach 4, "currently
//     under investigation").
package model

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Strategy selects a §III dimension-matching approach.
type Strategy int

// The four approaches of §III, numbered as in the paper.
const (
	ZeroPad Strategy = iota
	NeighborPad
	InnerCrop
	TransposeConv
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case ZeroPad:
		return "zero-pad"
	case NeighborPad:
		return "neighbor-pad"
	case InnerCrop:
		return "inner-crop"
	case TransposeConv:
		return "transpose-conv"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ParseStrategy converts a CLI string to a Strategy.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "zero-pad", "zeropad", "zero":
		return ZeroPad, nil
	case "neighbor-pad", "neighborpad", "neighbor":
		return NeighborPad, nil
	case "inner-crop", "innercrop", "inner":
		return InnerCrop, nil
	case "transpose-conv", "transposeconv", "deconv":
		return TransposeConv, nil
	}
	return 0, fmt.Errorf("model: unknown strategy %q", s)
}

// Config describes a per-subdomain network.
type Config struct {
	// Channels lists the channel counts through the network; the
	// paper's Table I is [4, 6, 16, 6, 4].
	Channels []int
	// Kernel is the square kernel size (paper: 5).
	Kernel int
	// LeakyEps is the leaky-ReLU negative slope (paper: 0.01).
	LeakyEps float64
	// Strategy selects the §III dimension-matching approach.
	Strategy Strategy
	// Seed drives the weight initialization.
	Seed int64
}

// PaperConfig returns the Table-I architecture with the zero-padding
// strategy the paper uses by default.
func PaperConfig() Config {
	return Config{
		Channels: []int{grid.NumChannels, 6, 16, 6, grid.NumChannels},
		Kernel:   5,
		LeakyEps: 0.01,
		Strategy: ZeroPad,
		Seed:     1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if len(c.Channels) < 2 {
		return fmt.Errorf("model: need at least 2 channel counts, got %v", c.Channels)
	}
	for _, ch := range c.Channels {
		if ch <= 0 {
			return fmt.Errorf("model: non-positive channel count in %v", c.Channels)
		}
	}
	if c.Kernel <= 0 || c.Kernel%2 == 0 {
		return fmt.Errorf("model: kernel size %d must be odd and positive", c.Kernel)
	}
	if c.LeakyEps < 0 || c.LeakyEps >= 1 {
		return fmt.Errorf("model: leaky epsilon %g outside [0,1)", c.LeakyEps)
	}
	switch c.Strategy {
	case ZeroPad, NeighborPad, InnerCrop, TransposeConv:
	default:
		return fmt.Errorf("model: invalid strategy %d", int(c.Strategy))
	}
	return nil
}

// Layers returns the number of convolution layers.
func (c Config) Layers() int { return len(c.Channels) - 1 }

// Halo returns the number of extra input points per side the network
// consumes beyond its output window: (K-1)/2 for the neighbour-padding
// strategy, 0 otherwise.
func (c Config) Halo() int {
	if c.Strategy == NeighborPad {
		return (c.Kernel - 1) / 2
	}
	return 0
}

// TargetCrop returns how many points per side must be cropped from the
// target before comparing with the network output: Layers·(K-1)/2 for
// the inner-crop strategy, 0 otherwise.
func (c Config) TargetCrop() int {
	if c.Strategy == InnerCrop {
		return c.Layers() * (c.Kernel - 1) / 2
	}
	return 0
}

// MinInputSize returns the smallest subdomain edge (before halo) the
// strategy supports: the all-valid stacks (inner-crop and
// transpose-conv) shrink the field by (K-1) per layer, so every
// intermediate activation must stay at least as large as the kernel.
func (c Config) MinInputSize() int {
	switch c.Strategy {
	case InnerCrop, TransposeConv:
		return c.Layers()*(c.Kernel-1) + 1
	}
	return 1
}

// Build constructs the network. The returned model maps an input of
// shape [N, Channels[0], H+2·Halo, W+2·Halo] to an output of shape
// [N, Channels[last], H-2·TargetCrop, W-2·TargetCrop].
func Build(c Config) (*nn.Sequential, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	g := tensor.NewRNG(c.Seed)
	same := nn.SamePad(c.Kernel)
	m := nn.NewSequential()
	layers := c.Layers()
	for l := 0; l < layers; l++ {
		pad := same
		switch c.Strategy {
		case NeighborPad:
			if l == 0 {
				pad = 0 // the halo supplies real data instead of zeros
			}
		case InnerCrop, TransposeConv:
			pad = 0
		}
		m.Add(nn.NewConv2D(fmt.Sprintf("conv%d", l+1), g, c.Channels[l], c.Channels[l+1], c.Kernel, pad))
		if l < layers-1 {
			m.Add(nn.NewLeakyReLU(fmt.Sprintf("lrelu%d", l+1), c.LeakyEps))
		}
	}
	if c.Strategy == TransposeConv {
		// One transpose convolution restores the Layers·(K-1) points
		// lost by the valid stack.
		restore := layers*(c.Kernel-1) + 1
		m.Add(nn.NewLeakyReLU("lrelu-final", c.LeakyEps))
		m.Add(nn.NewConvTranspose2D("deconv", g, c.Channels[layers], c.Channels[layers], restore))
	}
	return m, nil
}

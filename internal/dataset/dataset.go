// Package dataset produces and manages the training data of §IV: time
// series of 4-channel snapshots (ρ', p', u'x, u'y) generated by the
// linearized Euler solver, paired into (input at t, target at t+1)
// samples, split into training and validation portions (the paper uses
// the first 1000 of 1500 snapshots for training), normalized, and
// sliced into per-rank subdomain views for the parallel scheme.
package dataset

import (
	"fmt"

	"repro/internal/decomp"
	"repro/internal/euler"
	"repro/internal/grid"
	"repro/internal/tensor"
)

// Dataset is an ordered sequence of CHW snapshots on a common grid.
type Dataset struct {
	Grid      grid.Grid
	Snapshots []*tensor.Tensor // each [NumChannels, Ny, Nx], in time order
	// Dt is the physical time between consecutive snapshots.
	Dt float64
}

// GenConfig controls snapshot generation.
type GenConfig struct {
	// Euler configures the solver (grid, background, pulse).
	Euler euler.Config
	// NumSnapshots is the number of stored states (the paper: 1500).
	NumSnapshots int
	// StepsPerSnapshot is how many solver steps separate stored
	// snapshots (default 1 — the network learns the solver's own step).
	StepsPerSnapshot int
	// Stepper selects the time integrator (default RK4).
	Stepper euler.Stepper
}

// Generate runs the solver and records snapshots, the stand-in for the
// paper's "running a single simulation" with Ateles.
func Generate(cfg GenConfig) (*Dataset, error) {
	if cfg.NumSnapshots < 2 {
		return nil, fmt.Errorf("dataset: need at least 2 snapshots, got %d", cfg.NumSnapshots)
	}
	steps := cfg.StepsPerSnapshot
	if steps <= 0 {
		steps = 1
	}
	s, err := euler.NewSolver(cfg.Euler)
	if err != nil {
		return nil, err
	}
	s.Stepper = cfg.Stepper
	d := &Dataset{
		Grid:      cfg.Euler.Grid,
		Snapshots: make([]*tensor.Tensor, 0, cfg.NumSnapshots),
		Dt:        cfg.Euler.StableDt() * float64(steps),
	}
	d.Snapshots = append(d.Snapshots, s.State.ToField().ToTensor())
	for len(d.Snapshots) < cfg.NumSnapshots {
		for k := 0; k < steps; k++ {
			s.Step()
		}
		d.Snapshots = append(d.Snapshots, s.State.ToField().ToTensor())
	}
	return d, nil
}

// Len returns the number of snapshots.
func (d *Dataset) Len() int { return len(d.Snapshots) }

// Sample is one supervised training example: predict Target (the
// state at t+1) from Input (the state at t).
type Sample struct {
	Input  *tensor.Tensor // CHW
	Target *tensor.Tensor // CHW
}

// Pairs returns the (t → t+1) samples over the whole dataset. Tensors
// are shared with the dataset, not copied.
func (d *Dataset) Pairs() []Sample {
	if d.Len() < 2 {
		return nil
	}
	out := make([]Sample, d.Len()-1)
	for i := 0; i+1 < d.Len(); i++ {
		out[i] = Sample{Input: d.Snapshots[i], Target: d.Snapshots[i+1]}
	}
	return out
}

// Split cuts the dataset after nTrain snapshots, mirroring the paper's
// "first 1000 time steps for training, the remaining for validation".
// The snapshot at the boundary appears only in the training portion.
func (d *Dataset) Split(nTrain int) (train, val *Dataset, err error) {
	if nTrain < 2 || nTrain > d.Len() {
		return nil, nil, fmt.Errorf("dataset: split at %d outside [2,%d]", nTrain, d.Len())
	}
	train = &Dataset{Grid: d.Grid, Snapshots: d.Snapshots[:nTrain], Dt: d.Dt}
	val = &Dataset{Grid: d.Grid, Snapshots: d.Snapshots[nTrain:], Dt: d.Dt}
	return train, val, nil
}

// SubdomainSamples slices every (t → t+1) pair down to one rank's
// subdomain. Inputs carry `halo` extra points per side (zero-filled at
// the physical boundary), targets are the bare block — exactly the
// per-rank training set of §III.
func SubdomainSamples(d *Dataset, p *decomp.Partition, rank, halo int) []Sample {
	pairs := d.Pairs()
	out := make([]Sample, len(pairs))
	for i, pr := range pairs {
		out[i] = Sample{
			Input:  sliceOne(pr.Input, p, rank, halo),
			Target: sliceOne(pr.Target, p, rank, 0),
		}
	}
	return out
}

// sliceOne extracts a single rank's window from a CHW tensor.
func sliceOne(t *tensor.Tensor, p *decomp.Partition, rank, halo int) *tensor.Tensor {
	b := p.BlockOfRank(rank)
	piece := tensor.New(t.Dim(0), b.Height()+2*halo, b.Width()+2*halo)
	p.HaloWindowInto(piece.Data(), t, rank, halo)
	return piece
}

// Batch stacks the samples' inputs and targets into NCHW tensors.
func Batch(samples []Sample) (inputs, targets *tensor.Tensor) {
	if len(samples) == 0 {
		panic("dataset: Batch of zero samples")
	}
	ins := make([]*tensor.Tensor, len(samples))
	tgs := make([]*tensor.Tensor, len(samples))
	for i, s := range samples {
		ins[i] = s.Input
		tgs[i] = s.Target
	}
	return tensor.Stack(ins), tensor.Stack(tgs)
}

// MiniBatches partitions indices [0,n) into batches of size bs,
// shuffled with g if non-nil.
func MiniBatches(n, bs int, g *tensor.RNG) [][]int {
	if bs <= 0 {
		bs = n
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	if g != nil {
		perm := g.Perm(n)
		copy(idx, perm)
	}
	var out [][]int
	for i := 0; i < n; i += bs {
		j := i + bs
		if j > n {
			j = n
		}
		out = append(out, idx[i:j])
	}
	return out
}

// Gather builds an NCHW batch from a subset of samples.
func Gather(samples []Sample, idx []int) (inputs, targets *tensor.Tensor) {
	sub := make([]Sample, len(idx))
	for i, k := range idx {
		sub[i] = samples[k]
	}
	return Batch(sub)
}

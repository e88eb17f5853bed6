package dataset

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Normalizer is a per-channel affine map x ↦ x·Scale[c] + Offset[c].
// The paper trains with MAPE (Eq. 7), which divides by the target
// value, so the experiments map every channel into a strictly positive
// range (Fig. 3's colorbar spans 0…1) — FitMinMax with lo > 0 makes
// the loss well-conditioned for the velocity channels that start at
// exactly zero.
type Normalizer struct {
	Scale  []float64
	Offset []float64
}

// FitMinMax fits a per-channel min-max normalization of the dataset
// onto [lo, hi]. Constant channels map to the midpoint.
func FitMinMax(d *Dataset, lo, hi float64) (*Normalizer, error) {
	if hi <= lo {
		return nil, fmt.Errorf("dataset: empty normalization range [%g,%g]", lo, hi)
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("dataset: cannot fit normalizer on empty dataset")
	}
	c := d.Snapshots[0].Dim(0)
	mins := make([]float64, c)
	maxs := make([]float64, c)
	for i := range mins {
		mins[i] = math.Inf(1)
		maxs[i] = math.Inf(-1)
	}
	for _, snap := range d.Snapshots {
		hw := snap.Dim(1) * snap.Dim(2)
		data := snap.Data()
		for ch := 0; ch < c; ch++ {
			for _, v := range data[ch*hw : (ch+1)*hw] {
				if v < mins[ch] {
					mins[ch] = v
				}
				if v > maxs[ch] {
					maxs[ch] = v
				}
			}
		}
	}
	n := &Normalizer{Scale: make([]float64, c), Offset: make([]float64, c)}
	for ch := 0; ch < c; ch++ {
		span := maxs[ch] - mins[ch]
		if span <= 0 {
			// Constant channel: map to midpoint.
			n.Scale[ch] = 0
			n.Offset[ch] = (lo + hi) / 2
			continue
		}
		n.Scale[ch] = (hi - lo) / span
		n.Offset[ch] = lo - mins[ch]*n.Scale[ch]
	}
	return n, nil
}

// Apply returns a normalized copy of a CHW or NCHW tensor.
func (n *Normalizer) Apply(t *tensor.Tensor) *tensor.Tensor {
	return n.affine(t, func(v float64, ch int) float64 {
		return v*n.Scale[ch] + n.Offset[ch]
	})
}

func (n *Normalizer) affine(t *tensor.Tensor, f func(v float64, ch int) float64) *tensor.Tensor {
	var chDim int
	switch t.Rank() {
	case 3:
		chDim = 0
	case 4:
		chDim = 1
	default:
		panic(fmt.Sprintf("dataset: Normalizer needs CHW or NCHW tensor, got %v", t.Shape()))
	}
	c := t.Dim(chDim)
	if c != len(n.Scale) {
		panic(fmt.Sprintf("dataset: Normalizer has %d channels, tensor has %d", len(n.Scale), c))
	}
	out := t.Clone()
	hw := t.Dim(chDim+1) * t.Dim(chDim+2)
	batch := 1
	if t.Rank() == 4 {
		batch = t.Dim(0)
	}
	data := out.Data()
	for b := 0; b < batch; b++ {
		for ch := 0; ch < c; ch++ {
			base := (b*c + ch) * hw
			for i := base; i < base+hw; i++ {
				data[i] = f(data[i], ch)
			}
		}
	}
	return out
}

// NormalizeDataset returns a copy of d with every snapshot normalized.
func NormalizeDataset(d *Dataset, n *Normalizer) *Dataset {
	out := &Dataset{Grid: d.Grid, Dt: d.Dt, Snapshots: make([]*tensor.Tensor, d.Len())}
	for i, s := range d.Snapshots {
		out.Snapshots[i] = n.Apply(s)
	}
	return out
}

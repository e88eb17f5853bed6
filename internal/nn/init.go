package nn

import (
	"math"

	"repro/internal/tensor"
)

// HeNormal draws weights from N(0, 2/fanIn), the initialization of
// He et al. recommended for ReLU-family activations like the paper's
// leaky ReLU.
func HeNormal(g *tensor.RNG, fanIn int, shape ...int) *tensor.Tensor {
	std := math.Sqrt(2.0 / float64(fanIn))
	return tensor.Normal(g, 0, std, shape...)
}

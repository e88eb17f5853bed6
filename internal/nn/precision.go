package nn

import "fmt"

// Precision selects the numeric width of a network's compute path
// (DESIGN.md §13). F64 is the default everywhere and carries every
// bit-identity guarantee this repository makes; F32 is an opt-in,
// forward-only fast path for inference: float64 master weights and
// frames at the boundary, float32 kernels in between. The two paths agree to a
// documented error budget (EXPERIMENTS.md), never bit-for-bit.
type Precision int

const (
	// F64 runs every kernel on float64 — the reference path.
	F64 Precision = iota
	// F32 narrows activations once on entry, runs the layer kernels on
	// float32 with prepacked float32 weights, and widens once at the
	// output boundary.
	F32
)

// String implements fmt.Stringer.
func (p Precision) String() string {
	switch p {
	case F64:
		return "f64"
	case F32:
		return "f32"
	}
	return fmt.Sprintf("Precision(%d)", int(p))
}

// ParsePrecision parses the -precision flag values.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "f64", "float64":
		return F64, nil
	case "f32", "float32":
		return F32, nil
	}
	return F64, fmt.Errorf("nn: unknown precision %q (want f64 or f32)", s)
}

// SetPrecision pins the width the network's chain runs at. F32
// requires every layer, at any depth, to be a chain stage (Conv2D,
// ConvTranspose2D, LeakyReLU or Sequential); the first that is not is
// reported by name and the network is left unchanged. Pinning packs the
// convolutions' float32 weights at once — once per Engine, since clones
// share the packs — so serving never pays the narrowing on a request
// path. Pinning is a per-instance property: clones made before a pin
// do not see it, and CloneShared propagates the current pin
// to new clones. A pinned network is forward-only: Backward panics until
// SetPrecision(F64).
func (s *Sequential) SetPrecision(p Precision) error {
	switch p {
	case F64:
	case F32:
		if err := eachPack(s.layers, func(p *pack32, w, b *Param) { p.get(w, b) }); err != nil {
			return err
		}
	default:
		return fmt.Errorf("nn: unknown precision %v", p)
	}
	s.prec = p
	return nil
}

// Precision reports the network's pinned compute path.
func (s *Sequential) Precision() Precision { return s.prec }

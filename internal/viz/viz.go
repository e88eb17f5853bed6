// Package viz renders 2-D scalar fields for inspection without a
// plotting stack: coarse ASCII heat maps for terminal output
// (cmd/inspect), and binary PGM/PPM images for
// anything that wants real pixels. Everything is deterministic and
// dependency-free.
package viz

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/tensor"
)

// shades orders ASCII glyphs by approximate ink density.
const shades = " .:-=+*#%@"

// AsciiMap renders a rank-2 field as rows×cols lines of ASCII shading,
// normalized to the field's own min/max (a constant field renders as
// all-minimum glyphs).
func AsciiMap(f *tensor.Tensor, rows, cols int) []string {
	if f.Rank() != 2 {
		panic(fmt.Sprintf("viz: AsciiMap needs a rank-2 field, got %v", f.Shape()))
	}
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("viz: non-positive map size %dx%d", rows, cols))
	}
	h, w := f.Dim(0), f.Dim(1)
	lo, hi := f.Min(), f.Max()
	span := hi - lo
	if span == 0 {
		span = 1
	}
	// Endpoint-inclusive sampling so the first/last rows and columns
	// of the field are always represented.
	sample := func(k, cells, extent int) int {
		if cells == 1 {
			return extent / 2
		}
		return k * (extent - 1) / (cells - 1)
	}
	out := make([]string, rows)
	for r := 0; r < rows; r++ {
		var b strings.Builder
		for c := 0; c < cols; c++ {
			v := f.At(sample(r, rows, h), sample(c, cols, w))
			idx := int((v - lo) / span * float64(len(shades)-1))
			b.WriteByte(shades[idx])
		}
		out[r] = b.String()
	}
	return out
}

// WritePGM emits a rank-2 field as a binary 8-bit PGM image, value
// range normalized to the field's min/max.
func WritePGM(w io.Writer, f *tensor.Tensor) error {
	if f.Rank() != 2 {
		return fmt.Errorf("viz: WritePGM needs a rank-2 field, got %v", f.Shape())
	}
	h, wd := f.Dim(0), f.Dim(1)
	lo, hi := f.Min(), f.Max()
	span := hi - lo
	if span == 0 {
		span = 1
	}
	if _, err := fmt.Fprintf(w, "P5\n%d %d\n255\n", wd, h); err != nil {
		return err
	}
	row := make([]byte, wd)
	for y := 0; y < h; y++ {
		for x := 0; x < wd; x++ {
			row[x] = byte((f.At(y, x) - lo) / span * 255)
		}
		if _, err := w.Write(row); err != nil {
			return err
		}
	}
	return nil
}

// WritePPMDiverging emits a rank-2 field as a binary PPM with a
// blue–white–red diverging colormap centered on zero, the natural
// rendering for perturbation fields.
func WritePPMDiverging(w io.Writer, f *tensor.Tensor) error {
	if f.Rank() != 2 {
		return fmt.Errorf("viz: WritePPMDiverging needs a rank-2 field, got %v", f.Shape())
	}
	h, wd := f.Dim(0), f.Dim(1)
	m := f.AbsMax()
	if m == 0 {
		m = 1
	}
	if _, err := fmt.Fprintf(w, "P6\n%d %d\n255\n", wd, h); err != nil {
		return err
	}
	row := make([]byte, 3*wd)
	for y := 0; y < h; y++ {
		for x := 0; x < wd; x++ {
			v := f.At(y, x) / m // in [-1, 1]
			var r, g, b float64
			if v >= 0 {
				r, g, b = 1, 1-v, 1-v
			} else {
				r, g, b = 1+v, 1+v, 1
			}
			row[3*x] = byte(r * 255)
			row[3*x+1] = byte(g * 255)
			row[3*x+2] = byte(b * 255)
		}
		if _, err := w.Write(row); err != nil {
			return err
		}
	}
	return nil
}

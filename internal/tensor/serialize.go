package tensor

import (
	"encoding/gob"
	"fmt"
	"io"
)

// wireTensor is the gob wire representation of a Tensor. Strides are
// derived, so only shape and data travel.
type wireTensor struct {
	Shape []int
	Data  []float64
}

// GobEncode implements gob.GobEncoder.
func (t *Tensor) GobEncode() ([]byte, error) {
	var buf gobBuffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(wireTensor{Shape: t.shape, Data: t.data}); err != nil {
		return nil, fmt.Errorf("tensor: gob encode: %w", err)
	}
	return buf.b, nil
}

// GobDecode implements gob.GobDecoder.
func (t *Tensor) GobDecode(p []byte) error {
	var w wireTensor
	dec := gob.NewDecoder(&gobBuffer{b: p})
	if err := dec.Decode(&w); err != nil {
		return fmt.Errorf("tensor: gob decode: %w", err)
	}
	n := checkShape(w.Shape)
	if n != len(w.Data) {
		return fmt.Errorf("tensor: gob decode: shape %v does not match %d elements", w.Shape, len(w.Data))
	}
	t.shape = w.Shape
	t.data = w.Data
	t.strides = make([]int, len(w.Shape))
	fillStrides(t.strides, w.Shape)
	return nil
}

// gobBuffer is a minimal io.ReadWriter over a byte slice, avoiding a
// bytes.Buffer allocation dance in the hot checkpoint path.
type gobBuffer struct {
	b   []byte
	off int
}

func (g *gobBuffer) Write(p []byte) (int, error) {
	g.b = append(g.b, p...)
	return len(p), nil
}

func (g *gobBuffer) Read(p []byte) (int, error) {
	if g.off >= len(g.b) {
		return 0, io.EOF
	}
	n := copy(p, g.b[g.off:])
	g.off += n
	return n, nil
}

// WriteTo serializes t to w using gob.
func (t *Tensor) WriteTo(w io.Writer) (int64, error) {
	b, err := t.GobEncode()
	if err != nil {
		return 0, err
	}
	n, err := w.Write(b)
	return int64(n), err
}

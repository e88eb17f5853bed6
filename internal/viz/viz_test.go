package viz

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/tensor"
)

func gradientField() *tensor.Tensor {
	f := tensor.New(8, 8)
	for j := 0; j < 8; j++ {
		for i := 0; i < 8; i++ {
			f.Set(float64(j*8+i), j, i)
		}
	}
	return f
}

func TestAsciiMapBasics(t *testing.T) {
	f := gradientField()
	m := AsciiMap(f, 4, 8)
	if len(m) != 4 {
		t.Fatalf("rows = %d", len(m))
	}
	for _, line := range m {
		if len(line) != 8 {
			t.Fatalf("cols = %d", len(line))
		}
	}
	// Monotone field: the first glyph is the lightest, the last the
	// darkest.
	if m[0][0] != ' ' {
		t.Fatalf("minimum not rendered lightest: %q", m[0][0])
	}
	if m[3][7] != '@' {
		t.Fatalf("maximum not rendered darkest: %q", m[3][7])
	}
}

func TestAsciiMapConstantField(t *testing.T) {
	f := tensor.New(4, 4)
	for i := range f.Data() {
		f.Data()[i] = 3.5
	}
	m := AsciiMap(f, 2, 2)
	for _, line := range m {
		if strings.Trim(line, " ") != "" {
			t.Fatalf("constant field should render uniformly: %q", line)
		}
	}
}

func TestAsciiMapValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rank-3 field accepted")
		}
	}()
	AsciiMap(tensor.New(2, 2, 2), 2, 2)
}

func TestWritePGM(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePGM(&buf, gradientField()); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	if !bytes.HasPrefix(out, []byte("P5\n8 8\n255\n")) {
		t.Fatalf("bad PGM header: %q", out[:12])
	}
	pixels := out[len("P5\n8 8\n255\n"):]
	if len(pixels) != 64 {
		t.Fatalf("pixel count %d", len(pixels))
	}
	if pixels[0] != 0 || pixels[63] != 255 {
		t.Fatalf("normalization wrong: %d..%d", pixels[0], pixels[63])
	}
	if err := WritePGM(&buf, tensor.New(2, 2, 2)); err == nil {
		t.Fatal("rank-3 accepted")
	}
}

func TestWritePPMDiverging(t *testing.T) {
	f := tensor.New(1, 3)
	f.Set(-1, 0, 0)
	f.Set(0, 0, 1)
	f.Set(1, 0, 2)
	var buf bytes.Buffer
	if err := WritePPMDiverging(&buf, f); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	header := []byte("P6\n3 1\n255\n")
	if !bytes.HasPrefix(out, header) {
		t.Fatalf("bad PPM header")
	}
	px := out[len(header):]
	if len(px) != 9 {
		t.Fatalf("pixel bytes = %d", len(px))
	}
	// -1 → blue (b=255, r=0); 0 → white; +1 → red (r=255, b=0).
	if px[2] != 255 || px[0] != 0 {
		t.Fatalf("negative not blue: %v", px[0:3])
	}
	if px[3] != 255 || px[4] != 255 || px[5] != 255 {
		t.Fatalf("zero not white: %v", px[3:6])
	}
	if px[6] != 255 || px[8] != 0 {
		t.Fatalf("positive not red: %v", px[6:9])
	}
	if err := WritePPMDiverging(&buf, tensor.New(2)); err == nil {
		t.Fatal("rank-1 accepted")
	}
}

func TestPPMConstantZeroField(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePPMDiverging(&buf, tensor.New(2, 2)); err != nil {
		t.Fatal(err)
	}
	// All-zero field must render white, not NaN-divide.
	px := buf.Bytes()[len("P6\n2 2\n255\n"):]
	for _, b := range px {
		if b != 255 {
			t.Fatalf("zero field not white: %v", px)
		}
	}
}

package model

import (
	"path/filepath"
	"testing"

	"repro/internal/grid"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestPaperConfig(t *testing.T) {
	c := PaperConfig()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	want := []int{4, 6, 16, 6, 4}
	for i, ch := range want {
		if c.Channels[i] != ch {
			t.Fatalf("Channels = %v, want %v", c.Channels, want)
		}
	}
	if c.Kernel != 5 || c.LeakyEps != 0.01 || c.Layers() != 4 {
		t.Fatalf("paper config wrong: %+v", c)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Channels = []int{4} },
		func(c *Config) { c.Channels = []int{4, 0, 4} },
		func(c *Config) { c.Kernel = 4 },
		func(c *Config) { c.Kernel = 0 },
		func(c *Config) { c.LeakyEps = 1.0 },
		func(c *Config) { c.LeakyEps = -0.1 },
		func(c *Config) { c.Strategy = Strategy(99) },
	}
	for i, mut := range bad {
		c := PaperConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
		if _, err := Build(c); err == nil {
			t.Errorf("case %d: Build accepted invalid config", i)
		}
	}
}

// TestModelShapes is the Fig.-1 structural check: the input/output
// shape contract of every strategy on a subdomain.
func TestModelShapes(t *testing.T) {
	const n = 24 // bare subdomain edge
	for _, strat := range []Strategy{ZeroPad, NeighborPad, InnerCrop, TransposeConv} {
		c := PaperConfig()
		c.Strategy = strat
		m, err := Build(c)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		in := n + 2*c.Halo()
		x := tensor.Normal(tensor.NewRNG(1), 0, 1, 2, grid.NumChannels, in, in)
		y := m.Forward(x)
		wantOut := n - 2*c.TargetCrop()
		if y.Dim(0) != 2 || y.Dim(1) != grid.NumChannels || y.Dim(2) != wantOut || y.Dim(3) != wantOut {
			t.Fatalf("%v: output %v, want [2 %d %d %d]", strat, y.Shape(), grid.NumChannels, wantOut, wantOut)
		}
	}
}

func TestStrategyContracts(t *testing.T) {
	c := PaperConfig()

	c.Strategy = ZeroPad
	if c.Halo() != 0 || c.TargetCrop() != 0 || c.MinInputSize() != 1 {
		t.Fatalf("ZeroPad contract wrong")
	}

	c.Strategy = NeighborPad
	if c.Halo() != 2 || c.TargetCrop() != 0 {
		t.Fatalf("NeighborPad contract wrong: halo=%d", c.Halo())
	}

	c.Strategy = InnerCrop
	if c.Halo() != 0 || c.TargetCrop() != 8 || c.MinInputSize() != 17 {
		t.Fatalf("InnerCrop contract wrong: crop=%d min=%d", c.TargetCrop(), c.MinInputSize())
	}

	c.Strategy = TransposeConv
	if c.Halo() != 0 || c.TargetCrop() != 0 {
		t.Fatalf("TransposeConv contract wrong")
	}
}

func TestBuildDeterministicBySeed(t *testing.T) {
	c := PaperConfig()
	m1, _ := Build(c)
	m2, _ := Build(c)
	for i, p := range m1.Params() {
		if !p.Value.Equal(m2.Params()[i].Value) {
			t.Fatalf("same seed gave different weights")
		}
	}
	c.Seed = 2
	m3, _ := Build(c)
	if m1.Params()[0].Value.Equal(m3.Params()[0].Value) {
		t.Fatalf("different seeds gave identical weights")
	}
}

func TestParseStrategy(t *testing.T) {
	cases := map[string]Strategy{
		"zero-pad": ZeroPad, "zeropad": ZeroPad, "zero": ZeroPad,
		"neighbor-pad": NeighborPad, "neighbor": NeighborPad,
		"inner-crop": InnerCrop, "inner": InnerCrop,
		"transpose-conv": TransposeConv, "deconv": TransposeConv,
	}
	for s, want := range cases {
		got, err := ParseStrategy(s)
		if err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Fatal("bogus strategy accepted")
	}
	for _, s := range []Strategy{ZeroPad, NeighborPad, InnerCrop, TransposeConv} {
		if s.String() == "" {
			t.Fatalf("empty strategy name")
		}
		back, err := ParseStrategy(s.String())
		if err != nil || back != s {
			t.Fatalf("String/Parse round trip failed for %v", s)
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	cfg := PaperConfig()
	cfg.Seed = 7
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ck := Snapshot(cfg, m)
	ck.Rank = 3
	ck.Px, ck.Py = 2, 2
	ck.Nx, ck.Ny = 64, 64
	path := filepath.Join(t.TempDir(), "ck.gob")
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rank != 3 || got.Px != 2 || got.Nx != 64 {
		t.Fatalf("metadata lost: %+v", got)
	}
	m2, err := got.Restore()
	if err != nil {
		t.Fatal(err)
	}
	// Identical forward results.
	x := tensor.Normal(tensor.NewRNG(5), 0, 1, 1, 4, 8, 8)
	if !m.Forward(x).AllClose(m2.Forward(x), 1e-14) {
		t.Fatalf("restored model differs")
	}
	if _, err := LoadCheckpoint(filepath.Join(t.TempDir(), "nope.gob")); err == nil {
		t.Fatal("missing checkpoint must fail")
	}
}

func TestParamCountMatchesTableI(t *testing.T) {
	m, _ := Build(PaperConfig())
	want := (4*6+6*16+16*6+6*4)*25 + 6 + 16 + 6 + 4
	if got := len(nn.FlattenParams(m)); got != want {
		t.Fatalf("parameter count = %d, want %d", got, want)
	}
}

func TestNeighborPadUsesHaloData(t *testing.T) {
	// With the neighbour-pad strategy, changing halo content must
	// change the output near the subdomain edge — that is the whole
	// point of approach 2.
	c := PaperConfig()
	c.Strategy = NeighborPad
	m, _ := Build(c)
	g := tensor.NewRNG(3)
	x1 := tensor.Normal(g, 0, 1, 1, 4, 12, 12) // 8x8 block + halo 2
	x2 := x1.Clone()
	// Perturb a halo cell (row 0 is pure halo).
	x2.Set(x2.At(0, 0, 0, 5)+1, 0, 0, 0, 5)
	y1 := m.Forward(x1)
	y2 := m.Forward(x2)
	if y1.Sub(y2).AbsMax() == 0 {
		t.Fatalf("halo data does not influence output")
	}
}

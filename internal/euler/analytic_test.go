package euler

import (
	"fmt"
	"math"
	"testing"
)

// The linearized Euler system with a fluid at rest reduces to the
// acoustic wave equation ∂tt p' = c²∇²p'. On a periodic domain it has
// exact standing-wave solutions
//
//	p'(x, y, t) = A·cos(kx·x̂)·cos(ky·ŷ)·cos(ω·t),  ω = c·|k|,
//
// with ρ' = p'/c² and a velocity field obtained from ∂t u' = -∇p'/ρc.
// These give the solver an analytic oracle for the convergence tests
// below: SetStandingWaveIC installs the t = 0 state and
// StandingWavePressure evaluates the exact field at any later time.

// SetStandingWaveIC replaces the solver state with the standing-wave
// initial condition of mode numbers (mx, my): mx half-wavelengths
// across the domain in x, my in y. The solver must be configured with
// periodic boundaries. Amplitude comes from Cfg.Amplitude.
func (s *Solver) SetStandingWaveIC(mx, my int) {
	if s.Cfg.Boundary != Periodic {
		panic("euler: standing-wave IC requires periodic boundaries")
	}
	if mx < 0 || my < 0 || mx+my == 0 {
		panic(fmt.Sprintf("euler: invalid standing-wave modes (%d,%d)", mx, my))
	}
	g := s.Cfg.Grid
	c2 := s.Cfg.SoundSpeed() * s.Cfg.SoundSpeed()
	kx := 2 * math.Pi * float64(mx) / (g.X1 - g.X0)
	ky := 2 * math.Pi * float64(my) / (g.Y1 - g.Y0)
	for j := 0; j < g.Ny; j++ {
		for i := 0; i < g.Nx; i++ {
			idx := j*g.Nx + i
			p := s.Cfg.Amplitude * math.Cos(kx*(g.XAt(i)-g.X0)) * math.Cos(ky*(g.YAt(j)-g.Y0))
			s.State.P[idx] = p
			s.State.Rho[idx] = p / c2
			s.State.U[idx] = 0
			s.State.V[idx] = 0
		}
	}
	s.Time = 0
	s.Steps = 0
}

// StandingWavePressure returns the exact pressure field of the
// standing wave with modes (mx, my) at time t, matching
// SetStandingWaveIC's initial state.
func StandingWavePressure(cfg Config, mx, my int, t float64) []float64 {
	g := cfg.Grid
	kx := 2 * math.Pi * float64(mx) / (g.X1 - g.X0)
	ky := 2 * math.Pi * float64(my) / (g.Y1 - g.Y0)
	omega := cfg.SoundSpeed() * math.Hypot(kx, ky)
	out := make([]float64, g.Points())
	for j := 0; j < g.Ny; j++ {
		for i := 0; i < g.Nx; i++ {
			out[j*g.Nx+i] = cfg.Amplitude *
				math.Cos(kx*(g.XAt(i)-g.X0)) * math.Cos(ky*(g.YAt(j)-g.Y0)) * math.Cos(omega*t)
		}
	}
	return out
}

func periodicConfig(n int) Config {
	cfg := DefaultConfig(n)
	cfg.Boundary = Periodic
	cfg.Dissipation = 0
	cfg.CFL = 0.2
	return cfg
}

// errorVsAnalytic runs the standing wave to physical time T and
// returns the max pressure error against the exact solution.
func errorVsAnalytic(t *testing.T, n, mx, my int, T float64) float64 {
	t.Helper()
	cfg := periodicConfig(n)
	s, err := NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.SetStandingWaveIC(mx, my)
	for s.Time < T {
		s.Step()
	}
	exact := StandingWavePressure(cfg, mx, my, s.Time)
	maxErr := 0.0
	for i, v := range s.State.P {
		if e := math.Abs(v - exact[i]); e > maxErr {
			maxErr = e
		}
	}
	return maxErr
}

func TestStandingWaveMatchesAnalytic(t *testing.T) {
	// Quarter period of the (1,1) mode: ω = c·π·√2 on length-2 domain.
	cfg := periodicConfig(64)
	omega := cfg.SoundSpeed() * math.Pi * math.Sqrt2
	T := math.Pi / (2 * omega) // quarter period
	err := errorVsAnalytic(t, 64, 1, 1, T)
	if err > 0.01*cfg.Amplitude {
		t.Fatalf("standing wave error %g (amplitude %g)", err, cfg.Amplitude)
	}
}

func TestStandingWaveSecondOrderConvergence(t *testing.T) {
	// Halving h must cut the analytic error by ≈4 (2nd-order stencil;
	// dt ∝ h so RK4's O(dt⁴) is negligible).
	const T = 0.3
	e32 := errorVsAnalytic(t, 32, 1, 1, T)
	e64 := errorVsAnalytic(t, 64, 1, 1, T)
	ratio := e32 / e64
	if ratio < 3.0 {
		t.Fatalf("convergence ratio %g (errors %g → %g), want ≈4", ratio, e32, e64)
	}
}

func TestStandingWaveHigherMode(t *testing.T) {
	// The (2,1) mode oscillates at ω = c·π·√5; one full period must
	// return near the initial state.
	cfg := periodicConfig(96)
	s, _ := NewSolver(cfg)
	s.SetStandingWaveIC(2, 1)
	init := append([]float64(nil), s.State.P...)
	omega := cfg.SoundSpeed() * math.Pi * math.Sqrt(5)
	period := 2 * math.Pi / omega
	for s.Time < period {
		s.Step()
	}
	exact := StandingWavePressure(cfg, 2, 1, s.Time)
	maxErr, maxInit := 0.0, 0.0
	for i := range init {
		if e := math.Abs(s.State.P[i] - exact[i]); e > maxErr {
			maxErr = e
		}
		if a := math.Abs(init[i]); a > maxInit {
			maxInit = a
		}
	}
	if maxErr > 0.05*maxInit {
		t.Fatalf("after one period error %g vs amplitude %g", maxErr, maxInit)
	}
}

func TestStandingWaveEnergyConservedPeriodic(t *testing.T) {
	// Periodic + no dissipation: the scheme should conserve acoustic
	// energy to high accuracy.
	cfg := periodicConfig(48)
	s, _ := NewSolver(cfg)
	s.SetStandingWaveIC(1, 1)
	e0 := s.Energy()
	for s.Time < 1.0 {
		s.Step()
	}
	e1 := s.Energy()
	if rel := math.Abs(e1-e0) / e0; rel > 0.01 {
		t.Fatalf("periodic energy drifted %.2f%%", rel*100)
	}
}

func TestStandingWaveValidation(t *testing.T) {
	cfg := DefaultConfig(32) // outflow
	s, _ := NewSolver(cfg)
	assertPanic := func(f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		f()
	}
	assertPanic(func() { s.SetStandingWaveIC(1, 1) }) // not periodic
	ps, _ := NewSolver(periodicConfig(32))
	assertPanic(func() { ps.SetStandingWaveIC(0, 0) })
	assertPanic(func() { ps.SetStandingWaveIC(-1, 1) })
}

func TestBoundaryTypeString(t *testing.T) {
	if Outflow.String() != "outflow" || Periodic.String() != "periodic" {
		t.Fatal("boundary names wrong")
	}
	if BoundaryType(9).String() == "" {
		t.Fatal("unknown boundary name empty")
	}
}

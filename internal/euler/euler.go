// Package euler implements a two-dimensional linearized Euler solver,
// the substitute for the Ateles discontinuous-Galerkin code the paper
// uses to produce training and validation data (§IV-A). The equations
// are the paper's Eq. (8): perturbations (ρ', u', p') around a constant
// background (ρc, uc, pc) with perturbation products neglected.
//
// The discretization is second-order central differences with an
// optional artificial-dissipation term, advanced in time with
// classical RK4 (whose stability region covers the imaginary axis, so
// the central scheme is stable under a CFL bound). Boundary conditions
// follow §IV-A: outflow — pressure perturbation fixed to zero, all
// other quantities homogeneous Neumann.
package euler

import (
	"fmt"
	"math"

	"repro/internal/grid"
)

// Config collects the physical and numerical parameters of a run.
type Config struct {
	// Grid is the spatial discretization (cell-centered uniform grid).
	Grid grid.Grid

	// Background state: the paper uses a fluid at rest with
	// pc = 1 bar and ρc = 1 kg/m³; we non-dimensionalize pressure so
	// pc = 1 (see DefaultConfig).
	RhoC   float64 // background density ρc
	PC     float64 // background pressure pc
	UC, VC float64 // background velocity (0,0) in the paper
	Gamma  float64 // ratio of specific heats γ

	// Gaussian pulse initial condition (§IV-A): amplitude 0.5,
	// half-width 0.3 m, centered at (CenterX, CenterY) = P(0,0).
	Amplitude        float64
	HalfWidth        float64
	CenterX, CenterY float64

	// CFL is the Courant number for the time step (default 0.4).
	CFL float64

	// Dissipation is the coefficient of the fourth-difference
	// artificial dissipation (0 disables it; small values such as
	// 0.01 damp odd-even oscillations near the boundary).
	Dissipation float64

	// Boundary selects the boundary treatment: the paper's outflow
	// conditions (default), or periodic wrap-around, which admits
	// exact analytic standing-wave solutions used to validate the
	// discretization.
	Boundary BoundaryType
}

// BoundaryType selects the boundary condition family.
type BoundaryType int

const (
	// Outflow is §IV-A: p' = 0 Dirichlet, homogeneous Neumann for the
	// other quantities.
	Outflow BoundaryType = iota
	// Periodic wraps the domain in both directions.
	Periodic
)

// String implements fmt.Stringer.
func (b BoundaryType) String() string {
	switch b {
	case Outflow:
		return "outflow"
	case Periodic:
		return "periodic"
	}
	return fmt.Sprintf("BoundaryType(%d)", int(b))
}

// DefaultConfig returns the paper's test case on an n×n grid: fluid at
// rest, ρc = 1, pc = 1 (non-dimensional), γ = 1.4, Gaussian pulse of
// amplitude 0.5 and half-width 0.3 at the domain center.
func DefaultConfig(n int) Config {
	return Config{
		Grid:        grid.NewUnitSquare(n),
		RhoC:        1.0,
		PC:          1.0,
		Gamma:       1.4,
		Amplitude:   0.5,
		HalfWidth:   0.3,
		CFL:         0.4,
		Dissipation: 0.02,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Grid.Validate(); err != nil {
		return err
	}
	if c.RhoC <= 0 || c.PC <= 0 || c.Gamma <= 1 {
		return fmt.Errorf("euler: unphysical background rho=%g p=%g gamma=%g", c.RhoC, c.PC, c.Gamma)
	}
	if c.HalfWidth <= 0 {
		return fmt.Errorf("euler: non-positive pulse half-width %g", c.HalfWidth)
	}
	if c.CFL <= 0 || c.CFL > 1 {
		return fmt.Errorf("euler: CFL %g outside (0,1]", c.CFL)
	}
	if c.Dissipation < 0 {
		return fmt.Errorf("euler: negative dissipation %g", c.Dissipation)
	}
	return nil
}

// SoundSpeed returns c = sqrt(γ·pc/ρc) of the background state.
func (c Config) SoundSpeed() float64 { return math.Sqrt(c.Gamma * c.PC / c.RhoC) }

// StableDt returns the CFL-limited time step.
func (c Config) StableDt() float64 {
	h := math.Min(c.Grid.Dx(), c.Grid.Dy())
	speed := c.SoundSpeed() + math.Hypot(c.UC, c.VC)
	return c.CFL * h / speed
}

// State holds the four perturbation fields at one time level,
// channel-major per grid.Field conventions.
type State struct {
	Rho, U, V, P []float64
	G            grid.Grid
}

// NewState allocates a zero state on g.
func NewState(g grid.Grid) *State {
	n := g.Points()
	return &State{
		Rho: make([]float64, n),
		U:   make([]float64, n),
		V:   make([]float64, n),
		P:   make([]float64, n),
		G:   g,
	}
}

// ToField copies the state into a 4-channel grid.Field using the
// repository channel order.
func (s *State) ToField() *grid.Field {
	f := grid.NewField(s.G, grid.NumChannels)
	copy(f.ChannelSlice(grid.ChanDensity), s.Rho)
	copy(f.ChannelSlice(grid.ChanPressure), s.P)
	copy(f.ChannelSlice(grid.ChanVelX), s.U)
	copy(f.ChannelSlice(grid.ChanVelY), s.V)
	return f
}

// Stepper selects the time-integration scheme.
type Stepper int

// Supported time integrators.
const (
	// RK4 is the classical fourth-order Runge-Kutta scheme (default).
	RK4 Stepper = iota
	// RK2 is Heun's second-order scheme.
	RK2
	// ForwardEuler is first-order (only stable thanks to dissipation;
	// provided for the stepper ablation).
	ForwardEuler
)

// String implements fmt.Stringer.
func (st Stepper) String() string {
	switch st {
	case RK4:
		return "rk4"
	case RK2:
		return "rk2"
	case ForwardEuler:
		return "euler"
	}
	return fmt.Sprintf("Stepper(%d)", int(st))
}

// Solver advances the linearized Euler equations in time.
type Solver struct {
	Cfg     Config
	Stepper Stepper
	State   *State
	Time    float64
	Steps   int

	// scratch states for the RK stages
	k1, k2, k3, k4, tmp *State
}

// NewSolver builds a solver with the Gaussian-pulse initial condition
// applied. It returns an error for invalid configurations.
func NewSolver(cfg Config) (*Solver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Solver{
		Cfg:     cfg,
		Stepper: RK4,
		State:   NewState(cfg.Grid),
		k1:      NewState(cfg.Grid),
		k2:      NewState(cfg.Grid),
		k3:      NewState(cfg.Grid),
		k4:      NewState(cfg.Grid),
		tmp:     NewState(cfg.Grid),
	}
	s.applyInitialCondition()
	return s, nil
}

// applyInitialCondition sets the §IV-A Gaussian pressure pulse:
// fluid at rest, zero density perturbation, pressure perturbation
// p'(r) = A·exp(-ln2·(r/halfWidth)²) so that p'(halfWidth) = A/2.
func (s *Solver) applyInitialCondition() {
	g := s.Cfg.Grid
	ln2 := math.Ln2
	hw2 := s.Cfg.HalfWidth * s.Cfg.HalfWidth
	for j := 0; j < g.Ny; j++ {
		for i := 0; i < g.Nx; i++ {
			dx := g.XAt(i) - s.Cfg.CenterX
			dy := g.YAt(j) - s.Cfg.CenterY
			r2 := dx*dx + dy*dy
			s.State.P[j*g.Nx+i] = s.Cfg.Amplitude * math.Exp(-ln2*r2/hw2)
		}
	}
	s.applyBoundary(s.State)
}

// applyBoundary enforces §IV-A outflow conditions in place:
// p' = 0 on all four boundaries (Dirichlet), homogeneous Neumann
// (zero normal derivative ≙ copy from interior neighbour) for ρ', u', v'.
// Periodic runs need no state fix-up: wrap-around lives in the stencil.
func (s *Solver) applyBoundary(st *State) {
	if s.Cfg.Boundary == Periodic {
		return
	}
	nx, ny := st.G.Nx, st.G.Ny
	for i := 0; i < nx; i++ {
		bot, bot1 := i, nx+i
		top, top1 := (ny-1)*nx+i, (ny-2)*nx+i
		st.P[bot], st.P[top] = 0, 0
		st.Rho[bot], st.Rho[top] = st.Rho[bot1], st.Rho[top1]
		st.U[bot], st.U[top] = st.U[bot1], st.U[top1]
		st.V[bot], st.V[top] = st.V[bot1], st.V[top1]
	}
	for j := 0; j < ny; j++ {
		lft, lft1 := j*nx, j*nx+1
		rgt, rgt1 := j*nx+nx-1, j*nx+nx-2
		st.P[lft], st.P[rgt] = 0, 0
		st.Rho[lft], st.Rho[rgt] = st.Rho[lft1], st.Rho[rgt1]
		st.U[lft], st.U[rgt] = st.U[lft1], st.U[rgt1]
		st.V[lft], st.V[rgt] = st.V[lft1], st.V[rgt1]
	}
}

// rhs evaluates the semi-discrete right-hand side of Eq. (8) into dst:
//
//	∂t ρ' = -(uc·∇)ρ' - ρc ∇·u'
//	∂t u' = -(uc·∇)u' - (1/ρc) ∂x p'
//	∂t v' = -(uc·∇)v' - (1/ρc) ∂y p'
//	∂t p' = -(uc·∇)p' - γ·pc ∇·u'
//
// using second-order central differences in the interior and one-sided
// differences in the boundary rows/columns, plus optional
// fourth-difference artificial dissipation.
func (s *Solver) rhs(st, dst *State) {
	g := st.G
	nx, ny := g.Nx, g.Ny
	idx := 1.0 / (2 * g.Dx())
	idy := 1.0 / (2 * g.Dy())
	rhoc, pc, gam := s.Cfg.RhoC, s.Cfg.PC, s.Cfg.Gamma
	uc, vc := s.Cfg.UC, s.Cfg.VC

	periodic := s.Cfg.Boundary == Periodic
	ddx := func(f []float64, j, i int) float64 {
		switch {
		case periodic:
			ip := i + 1
			if ip == nx {
				ip = 0
			}
			im := i - 1
			if im < 0 {
				im = nx - 1
			}
			return (f[j*nx+ip] - f[j*nx+im]) * idx
		case i == 0:
			return (f[j*nx+1] - f[j*nx]) * 2 * idx
		case i == nx-1:
			return (f[j*nx+nx-1] - f[j*nx+nx-2]) * 2 * idx
		default:
			return (f[j*nx+i+1] - f[j*nx+i-1]) * idx
		}
	}
	ddy := func(f []float64, j, i int) float64 {
		switch {
		case periodic:
			jp := j + 1
			if jp == ny {
				jp = 0
			}
			jm := j - 1
			if jm < 0 {
				jm = ny - 1
			}
			return (f[jp*nx+i] - f[jm*nx+i]) * idy
		case j == 0:
			return (f[nx+i] - f[i]) * 2 * idy
		case j == ny-1:
			return (f[(ny-1)*nx+i] - f[(ny-2)*nx+i]) * 2 * idy
		default:
			return (f[(j+1)*nx+i] - f[(j-1)*nx+i]) * idy
		}
	}

	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			k := j*nx + i
			divU := ddx(st.U, j, i) + ddy(st.V, j, i)
			dpx := ddx(st.P, j, i)
			dpy := ddy(st.P, j, i)

			dst.Rho[k] = -uc*ddx(st.Rho, j, i) - vc*ddy(st.Rho, j, i) - rhoc*divU
			dst.U[k] = -uc*ddx(st.U, j, i) - vc*ddy(st.U, j, i) - dpx/rhoc
			dst.V[k] = -uc*ddx(st.V, j, i) - vc*ddy(st.V, j, i) - dpy/rhoc
			dst.P[k] = -uc*ddx(st.P, j, i) - vc*ddy(st.P, j, i) - gam*pc*divU
		}
	}

	if s.Cfg.Dissipation > 0 {
		s.addDissipation(st, dst)
	}
}

// addDissipation adds a conservative second-difference smoothing term
// ε·c/h·(Laplacian h²) to every field, damping grid-frequency noise
// without affecting the resolved waves at second order.
func (s *Solver) addDissipation(st, dst *State) {
	g := st.G
	nx, ny := g.Nx, g.Ny
	c := s.Cfg.SoundSpeed()
	// coefficient scaled so the term is O(h) relative to the physics
	coefX := s.Cfg.Dissipation * c / g.Dx()
	coefY := s.Cfg.Dissipation * c / g.Dy()
	fields := [][2][]float64{{st.Rho, dst.Rho}, {st.U, dst.U}, {st.V, dst.V}, {st.P, dst.P}}
	for _, fd := range fields {
		f, d := fd[0], fd[1]
		for j := 1; j < ny-1; j++ {
			for i := 1; i < nx-1; i++ {
				k := j*nx + i
				d[k] += coefX*(f[k-1]-2*f[k]+f[k+1]) + coefY*(f[k-nx]-2*f[k]+f[k+nx])
			}
		}
	}
}

// axpyState computes dst = base + h·k for all four fields.
func axpyState(dst, base, k *State, h float64) {
	for i := range dst.Rho {
		dst.Rho[i] = base.Rho[i] + h*k.Rho[i]
		dst.U[i] = base.U[i] + h*k.U[i]
		dst.V[i] = base.V[i] + h*k.V[i]
		dst.P[i] = base.P[i] + h*k.P[i]
	}
}

// Step advances the solution by one CFL-limited time step and returns
// the step size used.
func (s *Solver) Step() float64 {
	dt := s.Cfg.StableDt()
	switch s.Stepper {
	case ForwardEuler:
		s.rhs(s.State, s.k1)
		axpyState(s.State, s.State, s.k1, dt)
	case RK2:
		s.rhs(s.State, s.k1)
		axpyState(s.tmp, s.State, s.k1, dt)
		s.applyBoundary(s.tmp)
		s.rhs(s.tmp, s.k2)
		for i := range s.State.Rho {
			s.State.Rho[i] += dt / 2 * (s.k1.Rho[i] + s.k2.Rho[i])
			s.State.U[i] += dt / 2 * (s.k1.U[i] + s.k2.U[i])
			s.State.V[i] += dt / 2 * (s.k1.V[i] + s.k2.V[i])
			s.State.P[i] += dt / 2 * (s.k1.P[i] + s.k2.P[i])
		}
	default: // RK4
		s.rhs(s.State, s.k1)
		axpyState(s.tmp, s.State, s.k1, dt/2)
		s.applyBoundary(s.tmp)
		s.rhs(s.tmp, s.k2)
		axpyState(s.tmp, s.State, s.k2, dt/2)
		s.applyBoundary(s.tmp)
		s.rhs(s.tmp, s.k3)
		axpyState(s.tmp, s.State, s.k3, dt)
		s.applyBoundary(s.tmp)
		s.rhs(s.tmp, s.k4)
		for i := range s.State.Rho {
			s.State.Rho[i] += dt / 6 * (s.k1.Rho[i] + 2*s.k2.Rho[i] + 2*s.k3.Rho[i] + s.k4.Rho[i])
			s.State.U[i] += dt / 6 * (s.k1.U[i] + 2*s.k2.U[i] + 2*s.k3.U[i] + s.k4.U[i])
			s.State.V[i] += dt / 6 * (s.k1.V[i] + 2*s.k2.V[i] + 2*s.k3.V[i] + s.k4.V[i])
			s.State.P[i] += dt / 6 * (s.k1.P[i] + 2*s.k2.P[i] + 2*s.k3.P[i] + s.k4.P[i])
		}
	}
	s.applyBoundary(s.State)
	s.Time += dt
	s.Steps++
	return dt
}

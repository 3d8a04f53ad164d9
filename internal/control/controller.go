package control

import (
	"fmt"
	"math"
)

// Controller kinds accepted by LoopConfig.Controller and the scenario
// JSON spec.
const (
	ControllerPID = "pid"
	controllerMPC = "mpc"
)

// controller computes a control input from the latest delivered state
// sample. Implementations are deterministic, allocation-free after
// construction, and run in kernel context (notification handlers).
type controller interface {
	command(x [2]float64, setpoint float64) float64
}

// pid is a PID law on the plant output with derivative taken from the
// measured rate state when the plant transmits one (double integrator) —
// avoiding noise amplification from differencing delayed samples — and
// from successive samples otherwise. The integral term is clamped to the
// saturation range to prevent windup while commands are stale.
type pid struct {
	kp, ki, kd float64
	dt         float64 // controller step, seconds (the loop period)
	umax       float64
	rate       bool // plant state 1 is the output's rate of change

	integ    float64
	prevErr  float64
	havePrev bool
}

func (c *pid) command(x [2]float64, setpoint float64) float64 {
	e := setpoint - x[0]
	c.integ += c.ki * e * c.dt
	if c.integ > c.umax {
		c.integ = c.umax
	} else if c.integ < -c.umax {
		c.integ = -c.umax
	}
	var d float64
	if c.rate {
		d = -x[1]
	} else if c.havePrev {
		d = (e - c.prevErr) / c.dt
	}
	c.prevErr, c.havePrev = e, true
	return clamp(c.kp*e+c.integ+c.kd*d, c.umax)
}

// mpc is an unconstrained horizon-N linear-quadratic model-predictive
// controller: it minimises Σ (x_i − r)'Q(x_i − r) + R·u_i² over the
// prediction model, applies the first input of the optimal sequence
// (clamped to the saturation range) and re-solves at every sample. The
// Hessian H = Γ'QΓ + R·I depends only on the model, so it is Cholesky-
// factorised once at construction; each sample costs one forward/backward
// substitution over preallocated buffers — no allocation, no iteration.
type mpc struct {
	n    int        // horizon
	q    [2]float64 // state cost diagonal
	umax float64

	pow  [][2][2]float64 // pow[i] = A^(i+1)
	gain [][][2]float64  // gain[i][j] = A^(i−j)·B, the effect of u_j on x_{i+1}
	chol [][]float64     // lower-triangular factor of H
	g    []float64       // gradient scratch
	u    []float64       // solution scratch
}

func newMPC(m Model, horizon int, q [2]float64, r, umax float64) (*mpc, error) {
	if horizon < 1 || horizon > 64 {
		return nil, fmt.Errorf("control: mpc horizon %d out of [1,64]", horizon)
	}
	c := &mpc{n: horizon, q: q, umax: umax,
		pow:  make([][2][2]float64, horizon),
		gain: make([][][2]float64, horizon),
		g:    make([]float64, horizon),
		u:    make([]float64, horizon),
	}
	c.pow[0] = m.A
	for i := 1; i < horizon; i++ {
		c.pow[i] = matMul(m.A, c.pow[i-1])
	}
	for i := 0; i < horizon; i++ {
		c.gain[i] = make([][2]float64, i+1)
		for j := 0; j <= i; j++ {
			c.gain[i][j] = matVec2(m.A, m.B, i-j)
		}
	}
	h := make([][]float64, horizon)
	for a := 0; a < horizon; a++ {
		h[a] = make([]float64, horizon)
		for b := 0; b <= a; b++ {
			var v float64
			for i := a; i < horizon; i++ {
				ga, gb := c.gain[i][a], c.gain[i][b]
				v += ga[0]*q[0]*gb[0] + ga[1]*q[1]*gb[1]
			}
			if a == b {
				v += r
			}
			h[a][b] = v
			h[b][a] = v
		}
	}
	var err error
	c.chol, err = cholesky(h)
	if err != nil {
		return nil, err
	}
	return c, nil
}

func (c *mpc) command(x [2]float64, setpoint float64) float64 {
	// Gradient of the quadratic cost at u = 0: g_j = Σ_{i≥j} Γ_ij'·Q·e_i
	// with e_i = A^(i+1)·x − r the free response error.
	for j := range c.g {
		c.g[j] = 0
	}
	for i := 0; i < c.n; i++ {
		p := &c.pow[i]
		e0 := p[0][0]*x[0] + p[0][1]*x[1] - setpoint
		e1 := p[1][0]*x[0] + p[1][1]*x[1]
		w0, w1 := c.q[0]*e0, c.q[1]*e1
		for j := 0; j <= i; j++ {
			gij := &c.gain[i][j]
			c.g[j] += gij[0]*w0 + gij[1]*w1
		}
	}
	// Solve H·u = −g via the precomputed Cholesky factor.
	for i := 0; i < c.n; i++ {
		v := -c.g[i]
		for k := 0; k < i; k++ {
			v -= c.chol[i][k] * c.u[k]
		}
		c.u[i] = v / c.chol[i][i]
	}
	for i := c.n - 1; i >= 0; i-- {
		v := c.u[i]
		for k := i + 1; k < c.n; k++ {
			v -= c.chol[k][i] * c.u[k]
		}
		c.u[i] = v / c.chol[i][i]
	}
	return clamp(c.u[0], c.umax)
}

func clamp(u, umax float64) float64 {
	if u > umax {
		return umax
	}
	if u < -umax {
		return -umax
	}
	return u
}

func matMul(a, b [2][2]float64) [2][2]float64 {
	var out [2][2]float64
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			out[i][j] = a[i][0]*b[0][j] + a[i][1]*b[1][j]
		}
	}
	return out
}

func matVec(a [2][2]float64, v [2]float64) [2]float64 {
	return [2]float64{a[0][0]*v[0] + a[0][1]*v[1], a[1][0]*v[0] + a[1][1]*v[1]}
}

// matVec2 computes A^k·B without allocating intermediate powers.
func matVec2(a [2][2]float64, b [2]float64, k int) [2]float64 {
	v := b
	for ; k > 0; k-- {
		v = matVec(a, v)
	}
	return v
}

// cholesky returns the lower-triangular factor L with L·L' = h, failing
// on a non-positive-definite matrix (R ≤ 0 or a degenerate model).
func cholesky(h [][]float64) ([][]float64, error) {
	n := len(h)
	l := make([][]float64, n)
	for i := range l {
		l[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := h[i][j]
			for k := 0; k < j; k++ {
				v -= l[i][k] * l[j][k]
			}
			if i == j {
				if v <= 0 {
					return nil, fmt.Errorf("control: mpc cost matrix not positive definite")
				}
				l[i][i] = math.Sqrt(v)
			} else {
				l[i][j] = v / l[j][j]
			}
		}
	}
	return l, nil
}

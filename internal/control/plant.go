// Package control implements closed-loop plant/controller workloads over
// the event channel middleware: discrete-time linear plants stepped
// deterministically on the simulation kernel, PID and horizon-N linear
// MPC controllers, and the sensor → controller → actuator loop whose
// three legs each ride a configurable channel class. The actuator applies
// the last-received command with zero-order hold, so late or lost frames
// visibly hurt the plant — turning every chaos, admission and federation
// scenario into a quality-of-control experiment (ROADMAP item 5; cf.
// "Model Predictive Control under Timing Constraints induced by CAN",
// arXiv 1503.02300).
package control

import (
	"fmt"
	"math"

	"canec/internal/sim"
)

// Model is a discrete-time linear state-space realisation
// x⁺ = A·x + B·u with at most two states, exact for a zero-order-held
// input over the discretisation step it was built for. It is shared by
// the plants (integration) and the MPC controller (prediction).
type Model struct {
	A [2][2]float64
	B [2]float64
	// N is the state dimension (1 or 2).
	N int
}

// secs converts a virtual duration to floating-point seconds for the
// continuous-time plant coefficients.
func secs(d sim.Duration) float64 { return float64(d) / 1e9 }

// step advances x in place by one model step under the held input u.
func (m *Model) step(x *[2]float64, u float64) {
	x0 := m.A[0][0]*x[0] + m.A[0][1]*x[1] + m.B[0]*u
	x1 := m.A[1][0]*x[0] + m.A[1][1]*x[1] + m.B[1]*u
	x[0], x[1] = x0, x1
}

// doubleIntegrator returns the exact ZOH discretisation of the
// double-integrator cart ẍ = u (position, velocity) for step dt:
// position += v·dt + u·dt²/2, velocity += u·dt.
func doubleIntegrator(dt sim.Duration) Model {
	h := secs(dt)
	return Model{
		A: [2][2]float64{{1, h}, {0, 1}},
		B: [2]float64{h * h / 2, h},
		N: 2,
	}
}

// firstOrderThermal returns the exact ZOH discretisation of the
// first-order thermal plant τ·x' = −x + gain·u for step dt:
// x⁺ = a·x + (1−a)·gain·u with a = exp(−dt/τ).
func firstOrderThermal(dt, tau sim.Duration, gain float64) Model {
	a := math.Exp(-secs(dt) / secs(tau))
	return Model{
		A: [2][2]float64{{a, 0}, {0, 0}},
		B: [2]float64{(1 - a) * gain, 0},
		N: 1,
	}
}

// Plant kinds accepted by LoopConfig.Plant and the scenario JSON spec.
const (
	PlantDoubleIntegrator = "double_integrator"
	plantThermal          = "thermal"
)

// plantModel builds the integration model for a named plant kind at
// step dt. The thermal time constant and gain are fixed loop defaults
// (200 ms, unit gain): the loops measure the network, not plant variety.
func plantModel(kind string, dt sim.Duration) (Model, error) {
	switch kind {
	case PlantDoubleIntegrator:
		return doubleIntegrator(dt), nil
	case plantThermal:
		return firstOrderThermal(dt, 200*sim.Millisecond, 1), nil
	default:
		return Model{}, fmt.Errorf("control: unknown plant %q", kind)
	}
}

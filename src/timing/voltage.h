// oisa_timing: supply-voltage scaling (the dual knob to overclocking).
//
// The paper's opening cites voltage-precision scaling as the circuit-level
// approximation knob [1]: lowering Vdd at a fixed clock produces the same
// late-arrival timing errors as shortening the clock at fixed Vdd. The
// alpha-power-law delay model maps a supply voltage to a delay derating
// factor, and dynamic energy scales with Vdd^2 — enabling
// energy-vs-accuracy studies on the same simulation substrate.
#pragma once

namespace oisa::timing {

/// Delay derating factor at `vdd` relative to the nominal supply:
/// delay(V) ∝ V / (V - Vth)^alpha, with 65 nm-flavored alpha-power-law
/// parameters (nominal 1.2 V, Vth 0.35 V, alpha 1.5). Returns 1.0 at the
/// nominal voltage. Throws std::invalid_argument unless vdd > Vth.
[[nodiscard]] double voltageDelayFactor(double vdd);

/// Dynamic-energy scaling factor at `vdd`: (V / Vnom)^2.
[[nodiscard]] double voltageEnergyFactor(double vdd);

}  // namespace oisa::timing

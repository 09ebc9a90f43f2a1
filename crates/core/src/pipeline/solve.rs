//! Stage 3 — **solving**: the Newton decoupling solves with their
//! escalation ladder (default tuning → robust tuning → characterized-ROM
//! bisection).
//!
//! The boot-time 4×4 decoupling extracts `(ΔVtn, ΔVtp, µn, µp)` from the
//! four-measurement calibration plan; the per-conversion 3×3 decoupling
//! jointly solves `(T, ΔVtn, ΔVtp)`; and a degraded sensor falls back to a
//! 1×1 temperature-only solve on the TSRO row. Every escalation is recorded
//! in [`Health`], and the [`Solved`] boundary type is what the output stage
//! consumes.

use crate::bank::RoClass;
use crate::calib::Calibration;
use crate::error::SensorError;
use crate::health::{Health, HealthEvent};
use crate::metrics::PipelineMetrics;
use crate::newton::{newton_solve_with, NewtonOptions, NewtonScratch};
use crate::pipeline::gate::Gated;
use crate::sensor::PtSensor;
use ptsim_device::delay::{DelayCache, ThermalPoint};
use ptsim_device::inverter::CmosEnv;
use ptsim_device::units::{Celsius, Hertz, Volt};

/// Step of the characterized-response bisection grid used as the last-ditch
/// solver fallback, in °C.
pub(crate) const ROM_GRID_STEP: f64 = 0.25;

/// Whether an error is a solver-convergence failure the escalation ladder
/// may recover from (as opposed to a hard configuration/measurement error).
pub(crate) fn solver_failed(e: &SensorError) -> bool {
    matches!(
        e,
        SensorError::SolverDiverged { .. }
            | SensorError::SingularJacobian { .. }
            | SensorError::IllConditioned { .. }
    )
}

/// Model environment used by the decoupling solver (golden model plus
/// hypothesized process state).
pub(crate) fn model_env(d_vtn: f64, d_vtp: f64, mu_n: f64, mu_p: f64, temp: Celsius) -> CmosEnv {
    CmosEnv {
        temp,
        d_vtn: Volt(d_vtn),
        d_vtp: Volt(d_vtp),
        mu_n,
        mu_p,
    }
}

/// A tiny exact-memoization cache for per-device on-currents inside the
/// Newton residual closures. Keys are the raw bits of the two unknowns a
/// device's current actually depends on; a hit replays exactly the values
/// the miss path computed from the same operands, so the finite-difference
/// Jacobian sweep skips re-evaluating the device a perturbation left
/// untouched (perturbing an NMOS unknown cannot change any PMOS current,
/// and vice versa). Three entries cover the sweep's reuse pattern: the
/// base iterate stays resident while the per-unknown perturbations cycle
/// through the remaining slots.
struct CurrentMemo<const R: usize> {
    keys: [(u64, u64); 3],
    vals: [[f64; R]; 3],
    stamp: [u32; 3],
    len: usize,
    clock: u32,
}

impl<const R: usize> CurrentMemo<R> {
    fn new() -> Self {
        CurrentMemo {
            keys: [(0, 0); 3],
            vals: [[0.0; R]; 3],
            stamp: [0; 3],
            len: 0,
            clock: 0,
        }
    }

    fn get_or(&mut self, key: (u64, u64), compute: impl FnOnce() -> [f64; R]) -> [f64; R] {
        self.clock += 1;
        for i in 0..self.len {
            if self.keys[i] == key {
                self.stamp[i] = self.clock;
                return self.vals[i];
            }
        }
        let slot = if self.len < self.keys.len() {
            self.len += 1;
            self.len - 1
        } else {
            // Evict the least-recently-used entry.
            (1..self.keys.len()).fold(0, |m, i| if self.stamp[i] < self.stamp[m] { i } else { m })
        };
        self.keys[slot] = key;
        self.vals[slot] = compute();
        self.stamp[slot] = self.clock;
        self.vals[slot]
    }
}

/// Solved process/temperature state of one conversion, before output
/// bounding and quantization.
#[derive(Debug, Clone, Copy)]
pub struct Solved {
    /// Solved junction temperature, °C.
    pub temperature: f64,
    /// Solved (or calibration-frozen) NMOS threshold shift, V.
    pub d_vtn: f64,
    /// Solved (or calibration-frozen) PMOS threshold shift, V.
    pub d_vtp: f64,
    /// Newton iterations (or ROM-grid model evaluations) spent.
    pub iterations: usize,
}

/// The 4×4 boot-time decoupling solve.
///
/// # Errors
///
/// Propagates Newton convergence failures under the given tuning.
pub(crate) fn solve_calibration(
    sensor: &PtSensor,
    plan: &[(RoClass, Volt); 4],
    measured: &[f64; 4],
    opts: &NewtonOptions,
    ns: &mut NewtonScratch,
) -> Result<([f64; 4], usize), SensorError> {
    let t_cal = sensor.spec.calib_temp;
    // The measured log-frequencies are hoisted out of the residual
    // (bit-identical: the same pure expressions, evaluated once instead of
    // per residual call).
    let ln_m = measured.map(f64::ln);
    const FD_STEPS: [f64; 4] = [1e-4, 1e-4, 1e-3, 1e-3];
    const STEP_LIMITS: [f64; 4] = [0.04, 0.04, 0.15, 0.15];
    let mut x = [0.0, 0.0, 1.0, 1.0];
    let iters = if sensor.characterized_model().is_some() {
        newton_solve_with(
            ns,
            &mut x,
            |v, out| {
                let env = model_env(v[0], v[1], v[2], v[3], t_cal);
                for (slot, (class, vdd)) in plan.iter().enumerate() {
                    out[slot] = sensor.model_ln_f(*class, *vdd, &env) - ln_m[slot];
                }
            },
            &FD_STEPS,
            &STEP_LIMITS,
            opts,
            "calibration decoupling",
        )?
    } else {
        // Analytic path: the calibration temperature is fixed across
        // iterations, so the per-temperature point and each row's
        // drain-saturation factor are hoisted out of the residual, and the
        // per-device on-currents are memoized so the Jacobian sweep can
        // reuse the device a perturbation left untouched — the NMOS
        // currents depend only on `(v[0], v[2])` and the PMOS currents only
        // on `(v[1], v[3])`. Bit-identical to the unmemoized path: a memo
        // hit replays the exact values the miss path computes, and the
        // current→delay→frequency recombination below is the same
        // arithmetic `RingCache::frequency` performs.
        let th = sensor.cache.thermal(t_cal);
        let drains = plan.map(|(_, vdd)| DelayCache::drain_factor(&th, vdd));
        let rings = plan.map(|(class, _)| sensor.cache.ring(class));
        let mut n_memo = CurrentMemo::<4>::new();
        let mut p_memo = CurrentMemo::<4>::new();
        newton_solve_with(
            ns,
            &mut x,
            |v, out| {
                let ions_n = n_memo.get_or((v[0].to_bits(), v[2].to_bits()), || {
                    core::array::from_fn(|i| {
                        rings[i]
                            .delay()
                            .nmos_current(&th, plan[i].1, v[0], v[2], drains[i])
                    })
                });
                let ions_p = p_memo.get_or((v[1].to_bits(), v[3].to_bits()), || {
                    core::array::from_fn(|i| {
                        rings[i]
                            .delay()
                            .pmos_current(&th, plan[i].1, v[1], v[3], drains[i])
                    })
                });
                for (slot, out_s) in out.iter_mut().enumerate() {
                    *out_s = rings[slot]
                        .frequency_from_currents(ions_n[slot], ions_p[slot], plan[slot].1)
                        .0
                        .ln()
                        - ln_m[slot];
                }
            },
            &FD_STEPS,
            &STEP_LIMITS,
            opts,
            "calibration decoupling",
        )?
    };
    Ok((x, iters))
}

/// The boot-time solve with its escalation: plain tuning first, the robust
/// tuning on a convergence failure (recorded in `health`).
///
/// # Errors
///
/// Propagates solver errors when both tunings fail, or any hard error.
pub(crate) fn solve_calibration_escalating(
    sensor: &PtSensor,
    plan: &[(RoClass, Volt); 4],
    measured: &[f64; 4],
    health: &mut Health,
    ns: &mut NewtonScratch,
    metrics: &mut Option<PipelineMetrics>,
) -> Result<([f64; 4], usize), SensorError> {
    match solve_calibration(sensor, plan, measured, &NewtonOptions::default(), ns) {
        Ok(solved) => Ok(solved),
        Err(e) if solver_failed(&e) => {
            health.record(HealthEvent::SolverRetuned {
                what: "calibration decoupling",
            });
            if let Some(m) = metrics.as_mut() {
                m.on_solver_retuned();
            }
            solve_calibration(sensor, plan, measured, &NewtonOptions::robust(), ns)
        }
        Err(e) => Err(e),
    }
}

/// The joint 3×3 conversion solve: `(T, ΔVtn, ΔVtp)` from `(f_t, f_n, f_p)`.
fn solve_conversion(
    sensor: &PtSensor,
    cal: &Calibration,
    f_t: Hertz,
    f_n: Hertz,
    f_p: Hertz,
    opts: &NewtonOptions,
    ns: &mut NewtonScratch,
) -> Result<([f64; 3], usize), SensorError> {
    let spec = sensor.spec;
    let ln_scale = cal.ln_tsro_scale();
    let (mu_n, mu_p) = (cal.mu_n(), cal.mu_p());
    // Measured log-frequencies are loop constants; hoisting the `ln`s out
    // of the residual is bit-identical (the subtraction order below is
    // unchanged — `ln_ft` and `ln_scale` stay separate addends).
    let (ln_ft, ln_fn, ln_fp) = (f_t.0.ln(), f_n.0.ln(), f_p.0.ln());
    const FD_STEPS: [f64; 3] = [0.01, 1e-4, 1e-4];
    const STEP_LIMITS: [f64; 3] = [40.0, 0.03, 0.03];
    // The TSRO row dominates temperature and the PSRO rows dominate the
    // thresholds, so the Jacobian is diagonally strong and quadratic
    // convergence holds even for large post-calibration drift (aging,
    // stress).
    let mut x = [cal.calib_temp().0, cal.d_vtn().0, cal.d_vtp().0];
    let iters = if sensor.characterized_model().is_some() {
        newton_solve_with(
            ns,
            &mut x,
            |v, out| {
                let env = model_env(v[1], v[2], mu_n, mu_p, Celsius(v[0]));
                out[0] =
                    sensor.model_ln_f(RoClass::Tsro, spec.bank.vdd_tsro, &env) - ln_ft + ln_scale;
                out[1] = sensor.model_ln_f(RoClass::PsroN, spec.bank.vdd_low, &env) - ln_fn;
                out[2] = sensor.model_ln_f(RoClass::PsroP, spec.bank.vdd_low, &env) - ln_fp;
            },
            &FD_STEPS,
            &STEP_LIMITS,
            opts,
            "conversion decoupling",
        )?
    } else {
        // Analytic path: per-device currents with exact memoization — the
        // NMOS currents depend only on `(v[0], v[1])` and the PMOS
        // currents only on `(v[0], v[2])`, so the threshold-perturbed
        // Jacobian columns reuse the other device's currents verbatim.
        //
        // One thermal point (one `powf`) and two drain factors (one `exp`
        // each) per *distinct temperature*, shared by the three model rows
        // and — via the memo — by the two threshold-perturbed Jacobian
        // evaluations of each Newton iteration, which re-visit the
        // iterate's temperature. Exact memoization: a hit replays the
        // identical values the miss path computes from the same `t`.
        let mut point_memo: Option<(u64, ThermalPoint, f64, f64)> = None;
        let rings = [
            sensor.cache.ring(RoClass::Tsro),
            sensor.cache.ring(RoClass::PsroN),
            sensor.cache.ring(RoClass::PsroP),
        ];
        let vdds = [spec.bank.vdd_tsro, spec.bank.vdd_low, spec.bank.vdd_low];
        let mut n_memo = CurrentMemo::<3>::new();
        let mut p_memo = CurrentMemo::<3>::new();
        newton_solve_with(
            ns,
            &mut x,
            |v, out| {
                let (th, drain_tsro, drain_low) = match point_memo {
                    Some((bits, th, dt, dl)) if bits == v[0].to_bits() => (th, dt, dl),
                    _ => {
                        let th = sensor.cache.thermal(Celsius(v[0]));
                        let dt = DelayCache::drain_factor(&th, spec.bank.vdd_tsro);
                        let dl = DelayCache::drain_factor(&th, spec.bank.vdd_low);
                        point_memo = Some((v[0].to_bits(), th, dt, dl));
                        (th, dt, dl)
                    }
                };
                let drains = [drain_tsro, drain_low, drain_low];
                let ions_n = n_memo.get_or((v[0].to_bits(), v[1].to_bits()), || {
                    core::array::from_fn(|i| {
                        rings[i]
                            .delay()
                            .nmos_current(&th, vdds[i], v[1], mu_n, drains[i])
                    })
                });
                let ions_p = p_memo.get_or((v[0].to_bits(), v[2].to_bits()), || {
                    core::array::from_fn(|i| {
                        rings[i]
                            .delay()
                            .pmos_current(&th, vdds[i], v[2], mu_p, drains[i])
                    })
                });
                out[0] = rings[0]
                    .frequency_from_currents(ions_n[0], ions_p[0], vdds[0])
                    .0
                    .ln()
                    - ln_ft
                    + ln_scale;
                out[1] = rings[1]
                    .frequency_from_currents(ions_n[1], ions_p[1], vdds[1])
                    .0
                    .ln()
                    - ln_fn;
                out[2] = rings[2]
                    .frequency_from_currents(ions_n[2], ions_p[2], vdds[2])
                    .0
                    .ln()
                    - ln_fp;
            },
            &FD_STEPS,
            &STEP_LIMITS,
            opts,
            "conversion decoupling",
        )?
    };
    Ok((x, iters))
}

/// TSRO-row residual at hypothesized temperature `t`, with the process
/// state frozen at the stored calibration and the measured log-frequency
/// (`ln_ft = f_t.ln()`) already computed — solver loops and the ROM grid
/// scan hoist the `ln` out of their per-evaluation work (bit-identical:
/// same value, same addend order).
fn tsro_residual_ln(sensor: &PtSensor, cal: &Calibration, ln_ft: f64, t: f64) -> f64 {
    let env = model_env(
        cal.d_vtn().0,
        cal.d_vtp().0,
        cal.mu_n(),
        cal.mu_p(),
        Celsius(t),
    );
    sensor.model_ln_f(RoClass::Tsro, sensor.spec.bank.vdd_tsro, &env) - ln_ft + cal.ln_tsro_scale()
}

/// Temperature-only solve on the TSRO row (1×1 Newton, escalating to the
/// robust tuning and finally the characterized-response bisection).
/// Returns `(temperature, solver work)`.
///
/// # Errors
///
/// Propagates hard (non-convergence) solver errors.
pub(crate) fn solve_temperature_only(
    sensor: &PtSensor,
    cal: &Calibration,
    f_t: Hertz,
    health: &mut Health,
    ns: &mut NewtonScratch,
    metrics: &mut Option<PipelineMetrics>,
) -> Result<(f64, usize), SensorError> {
    let ln_ft = f_t.0.ln();
    let run = |opts: &NewtonOptions, ns: &mut NewtonScratch| -> Result<(f64, usize), SensorError> {
        let mut x = [cal.calib_temp().0];
        let iters = newton_solve_with(
            ns,
            &mut x,
            |v, out| out[0] = tsro_residual_ln(sensor, cal, ln_ft, v[0]),
            &[0.01],
            &[40.0],
            opts,
            "temperature-only decoupling",
        )?;
        Ok((x[0], iters))
    };
    match run(&NewtonOptions::default(), ns) {
        Ok(solved) => Ok(solved),
        Err(e) if solver_failed(&e) => {
            health.record(HealthEvent::SolverRetuned {
                what: "temperature-only decoupling",
            });
            if let Some(m) = metrics.as_mut() {
                m.on_solver_retuned();
            }
            match run(&NewtonOptions::robust(), ns) {
                Ok(solved) => Ok(solved),
                Err(e) if solver_failed(&e) => {
                    health.record(HealthEvent::RomFallback {
                        what: "temperature-only decoupling",
                    });
                    if let Some(m) = metrics.as_mut() {
                        m.on_rom_fallback();
                    }
                    Ok(rom_bisect_temperature(sensor, cal, f_t))
                }
                Err(e) => Err(e),
            }
        }
        Err(e) => Err(e),
    }
}

/// Last-ditch solver fallback: grid-scan the characterized TSRO response
/// over (a guard band around) the acceptance range for the temperature
/// minimizing the residual. Immune to divergence by construction. Returns
/// `(temperature, model evaluations)`.
pub(crate) fn rom_bisect_temperature(
    sensor: &PtSensor,
    cal: &Calibration,
    f_t: Hertz,
) -> (f64, usize) {
    let (lo, hi) = (
        sensor.spec.temp_range.0 .0 - 10.0,
        sensor.spec.temp_range.1 .0 + 10.0,
    );
    let steps = ((hi - lo) / ROM_GRID_STEP).ceil() as usize;
    let ln_ft = f_t.0.ln();
    let mut best = (f64::INFINITY, lo);
    for i in 0..=steps {
        let t = lo + (hi - lo) * i as f64 / steps as f64;
        let r = tsro_residual_ln(sensor, cal, ln_ft, t).abs();
        if r < best.0 {
            best = (r, t);
        }
    }
    (best.1, steps + 1)
}

/// Solves one gated measurement set. With both PSROs the joint 3×3
/// decoupling runs (escalating through the robust tuning to the ROM
/// bisection); a lost PSRO degrades to the temperature-only solve with the
/// threshold shifts frozen at their calibration values.
///
/// # Errors
///
/// Propagates solver errors when every escalation stage fails.
pub fn solve_gated(
    sensor: &PtSensor,
    cal: &Calibration,
    gated: &Gated,
    health: &mut Health,
) -> Result<Solved, SensorError> {
    solve_gated_with(
        sensor,
        cal,
        gated,
        health,
        &mut NewtonScratch::new(),
        &mut None,
    )
}

/// [`solve_gated`] with a caller-owned (reusable) [`NewtonScratch`] — the
/// allocation-free form the batch hot path uses.
///
/// # Errors
///
/// See [`solve_gated`].
pub(crate) fn solve_gated_with(
    sensor: &PtSensor,
    cal: &Calibration,
    gated: &Gated,
    health: &mut Health,
    ns: &mut NewtonScratch,
    metrics: &mut Option<PipelineMetrics>,
) -> Result<Solved, SensorError> {
    let f_t = gated.f_tsro;
    let backoffs_before = ns.backoffs();
    let (temperature, d_vtn, d_vtp, iterations) = match (gated.f_psro_n, gated.f_psro_p) {
        (Some(f_n), Some(f_p)) => {
            match solve_conversion(sensor, cal, f_t, f_n, f_p, &NewtonOptions::default(), ns) {
                Ok((x, iters)) => (x[0], x[1], x[2], iters),
                Err(e) if solver_failed(&e) => {
                    health.record(HealthEvent::SolverRetuned {
                        what: "conversion decoupling",
                    });
                    if let Some(m) = metrics.as_mut() {
                        m.on_solver_retuned();
                    }
                    match solve_conversion(sensor, cal, f_t, f_n, f_p, &NewtonOptions::robust(), ns)
                    {
                        Ok((x, iters)) => (x[0], x[1], x[2], iters),
                        Err(e) if solver_failed(&e) => {
                            health.record(HealthEvent::RomFallback {
                                what: "conversion decoupling",
                            });
                            if let Some(m) = metrics.as_mut() {
                                m.on_rom_fallback();
                            }
                            let (t, iters) = rom_bisect_temperature(sensor, cal, f_t);
                            (t, cal.d_vtn().0, cal.d_vtp().0, iters)
                        }
                        Err(e) => return Err(e),
                    }
                }
                Err(e) => return Err(e),
            }
        }
        _ => {
            health.record(HealthEvent::DegradedTemperatureOnly);
            if let Some(m) = metrics.as_mut() {
                m.on_degraded();
            }
            let (t, iters) = solve_temperature_only(sensor, cal, f_t, health, ns, metrics)?;
            (t, cal.d_vtn().0, cal.d_vtp().0, iters)
        }
    };
    if let Some(m) = metrics.as_mut() {
        m.on_solver_iterations(iterations);
        m.on_newton_backoffs(ns.backoffs() - backoffs_before);
    }
    Ok(Solved {
        temperature,
        d_vtn,
        d_vtp,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::RoClass;
    use crate::sensor::{SensorInputs, SensorSpec};
    use ptsim_device::process::Technology;
    use ptsim_mc::die::{DieSample, DieSite};
    use ptsim_rng::Pcg64;

    fn calibrated() -> (PtSensor, DieSample) {
        let die = DieSample::nominal();
        let mut s = PtSensor::new(Technology::n65(), SensorSpec::default_65nm()).unwrap();
        let inputs = SensorInputs::new(&die, DieSite::CENTER, Celsius(25.0));
        let mut rng = Pcg64::seed_from_u64(11);
        s.calibrate(&inputs, &mut rng).unwrap();
        (s, die)
    }

    fn true_tsro_frequency(s: &PtSensor, die: &DieSample, t: f64) -> Hertz {
        let inputs = SensorInputs::new(die, DieSite::CENTER, Celsius(t));
        let env = s.die_env(RoClass::Tsro, &inputs, Celsius(t));
        let vdd = s.spec().bank.vdd_tsro;
        s.bank().frequency(s.technology(), RoClass::Tsro, vdd, &env)
    }

    #[test]
    fn degraded_solve_freezes_thresholds_at_calibration() {
        // Degraded temperature-only mode, isolated at the solve stage: a
        // gated set with a lost PSRO must solve temperature from the TSRO
        // row alone and freeze the threshold outputs.
        let (s, die) = calibrated();
        let cal = *s.calibration().unwrap();
        let gated = Gated {
            f_tsro: true_tsro_frequency(&s, &die, 85.0),
            f_psro_n: None,
            f_psro_p: Some(Hertz(1.0e8)),
        };
        let mut health = Health::nominal();
        let solved = solve_gated(&s, &cal, &gated, &mut health).unwrap();
        assert!(health.any(|e| matches!(e, HealthEvent::DegradedTemperatureOnly)));
        assert!(
            (solved.temperature - 85.0).abs() < 3.0,
            "degraded temp {} vs 85 °C",
            solved.temperature
        );
        assert_eq!(solved.d_vtn.to_bits(), cal.d_vtn().0.to_bits());
        assert_eq!(solved.d_vtp.to_bits(), cal.d_vtp().0.to_bits());
    }

    #[test]
    fn rom_bisection_brackets_the_true_temperature() {
        let (s, die) = calibrated();
        let cal = *s.calibration().unwrap();
        let f_t = true_tsro_frequency(&s, &die, 60.0);
        let (t, evals) = rom_bisect_temperature(&s, &cal, f_t);
        assert!(
            (t - 60.0).abs() < 2.0 * ROM_GRID_STEP + 1.5,
            "ROM fallback temp {t} vs 60 °C"
        );
        assert!(evals > 100, "grid scan must cover the range: {evals} evals");
    }

    #[test]
    fn joint_solve_matches_measured_state() {
        let (s, die) = calibrated();
        let cal = *s.calibration().unwrap();
        let inputs = SensorInputs::new(&die, DieSite::CENTER, Celsius(70.0));
        let mut rng = Pcg64::seed_from_u64(12);
        let mut ledger = ptsim_circuit::energy::EnergyLedger::new();
        let mut health = Health::nominal();
        let gated =
            crate::pipeline::gate::gate_conversion(&s, &inputs, &mut rng, &mut ledger, &mut health)
                .unwrap();
        let solved = solve_gated(&s, &cal, &gated, &mut health).unwrap();
        assert!((solved.temperature - 70.0).abs() < 1.5);
        assert!(solved.iterations > 0);
        assert!(health.is_nominal());
    }

    #[test]
    fn escalation_preserves_rng_free_purity() {
        // The solve stage consumes no RNG — same gated input, same output.
        let (s, die) = calibrated();
        let cal = *s.calibration().unwrap();
        let gated = Gated {
            f_tsro: true_tsro_frequency(&s, &die, 40.0),
            f_psro_n: None,
            f_psro_p: None,
        };
        let mut h1 = Health::nominal();
        let mut h2 = Health::nominal();
        let a = solve_gated(&s, &cal, &gated, &mut h1).unwrap();
        let b = solve_gated(&s, &cal, &gated, &mut h2).unwrap();
        assert_eq!(a.temperature.to_bits(), b.temperature.to_bits());
        assert_eq!(a.iterations, b.iterations);
    }
}

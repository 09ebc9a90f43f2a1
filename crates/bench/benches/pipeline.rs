//! Whole-pipeline conversion throughput (internal harness) — the per-die
//! inner loop every campaign (golden gates, R1, F3/F4) funnels through.
//!
//! `batch_convert_100` is the headline perf-trajectory number: a full
//! 100-die population (calibrate at boot + one conversion per die) on one
//! thread, so the measurement tracks the per-die hot path rather than
//! thread-pool noise — since the SoA refactor it runs the lane kernel,
//! with `batch_convert_scalar_100` keeping the bit-exact scalar oracle on
//! the same trajectory. `read_batch_100` isolates the steady-state
//! conversion loop of one calibrated sensor over a 100-point temperature
//! schedule. `golden_characterize` times the design-time fit of the
//! characterized (ROM) model over the default space, and `rom_convert` one
//! warm conversion of a sensor running on that model (ablation A1).

use ptsim_bench::harness::{bench, emit_meta, emit_metrics};
use ptsim_core::bank::BankSpec;
use ptsim_core::golden::{CharacterizationSpace, GoldenModel};
use ptsim_core::pipeline::batch::BatchPlan;
use ptsim_core::pipeline::{run_conversion_with, Scratch};
use ptsim_core::sensor::{PtSensor, SensorInputs, SensorSpec};
use ptsim_device::process::Technology;
use ptsim_device::units::Celsius;
use ptsim_mc::die::DieSite;
use ptsim_mc::driver::{die_rng, McConfig};
use ptsim_mc::model::VariationModel;
use std::hint::black_box;

fn main() {
    emit_meta();
    let tech = Technology::n65();
    let model = VariationModel::new(&tech);

    let plan = BatchPlan::new(tech.clone(), SensorSpec::default_65nm())
        .unwrap()
        .read_at(&[63.0]);
    let mut cfg = McConfig::new(100, 0x2012);
    cfg.threads = 1;
    bench("batch_convert_100", || {
        black_box(plan.run_population(&cfg, &model));
    });

    // The retained scalar oracle stays on the trajectory next to the lane
    // kernel (same population, same seed), so a regression in either path
    // is attributable from the medians alone.
    bench("batch_convert_scalar_100", || {
        black_box(plan.run_population_scalar(&cfg, &model));
    });

    let mut rng = die_rng(0x2012, 0);
    let die = model.sample_die(&mut rng);
    let mut sensor = PtSensor::new(tech.clone(), SensorSpec::default_65nm()).unwrap();
    sensor
        .calibrate(
            &SensorInputs::new(&die, DieSite::CENTER, Celsius(25.0)),
            &mut rng,
        )
        .unwrap();
    let temps: Vec<Celsius> = (0..100).map(|i| Celsius(-40.0 + 1.6 * i as f64)).collect();
    let inputs: Vec<SensorInputs> = temps
        .iter()
        .map(|&t| SensorInputs::new(&die, DieSite::CENTER, t))
        .collect();
    bench("read_batch_100", || {
        black_box(sensor.read_batch(&inputs, &mut rng).unwrap());
    });

    // Same per-die loop with the observability layer on, so the trajectory
    // records the instrumented hot path too — and emit the snapshot (per
    // stage spans, energy histogram, conversion counters) for inspection.
    let mut scratch = Scratch::with_metrics();
    bench("batch_convert_metrics_8", || {
        let mut s = plan.sensor();
        let mut rng = die_rng(0x2012, 1);
        let die = model.sample_die(&mut rng);
        for _ in 0..8 {
            black_box(
                plan.convert_with_scratch(&mut s, &die, &mut rng, &mut scratch)
                    .unwrap(),
            );
        }
    });
    if let Some(metrics) = scratch.take_metrics() {
        emit_metrics(&metrics.snapshot());
    }

    bench("golden_characterize", || {
        black_box(
            GoldenModel::characterize(
                &tech,
                BankSpec::default_65nm(),
                CharacterizationSpace::default(),
            )
            .unwrap(),
        );
    });

    let mut rom = PtSensor::new(tech, SensorSpec::default_65nm()).unwrap();
    rom.use_characterized_model(CharacterizationSpace::default())
        .unwrap();
    let mut rng = die_rng(0x2012, 2);
    let die = model.sample_die(&mut rng);
    rom.calibrate(
        &SensorInputs::new(&die, DieSite::CENTER, Celsius(25.0)),
        &mut rng,
    )
    .unwrap();
    let read = SensorInputs::new(&die, DieSite::CENTER, Celsius(63.0));
    let mut scratch = Scratch::new();
    bench("rom_convert", || {
        black_box(run_conversion_with(&rom, &read, &mut rng, &mut scratch).unwrap());
    });
}

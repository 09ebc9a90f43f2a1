//! SoA-vs-scalar equivalence gates for the lane kernel:
//!
//! * randomized populations through `BatchPlan::run_population` are
//!   bit-identical to the retained scalar oracle for **every** tail
//!   length mod [`LANES`] (0 through 2×LANES dies);
//! * `convert_batch` edge sizes (0, 1, 7, 8, 9 inputs) match a scalar
//!   `convert` loop bit for bit;
//! * `read_group_with` groups of 1, 7, 8 and 9 independently calibrated
//!   sensors — the lone-die scalar selection included — match one
//!   `PtSensor::read` per sensor in values, errors (uncalibrated and
//!   parity-corrupted members) and stream positions;
//! * a die forced into Newton divergence in lane *k* falls back to the
//!   scalar escalation ladder — same `Reading`, same `SolverRetuned`/
//!   `RomFallback` health events — and never perturbs neighboring lanes.

use ptsim_core::health::HealthEvent;
use ptsim_core::pipeline::{read_group_with, BatchPlan, LANES};
use ptsim_core::sensor::{PtSensor, Reading, SensorInputs, SensorSpec};
use ptsim_core::{Conversion, Scratch, SensorError};
use ptsim_device::process::Technology;
use ptsim_device::units::{Celsius, Volt};
use ptsim_faults::{Channel, Fault, FaultPlan, ReplicaSel};
use ptsim_mc::die::{DieSample, DieSite};
use ptsim_mc::driver::McConfig;
use ptsim_mc::model::VariationModel;
use ptsim_rng::{forall, Pcg64, RngCore};

/// One lane-grouped read over fresh working state.
fn read_group(
    sensors: &[&PtSensor],
    inputs: &[SensorInputs<'_>],
    rngs: &mut [&mut Pcg64],
) -> Vec<Result<Reading, SensorError>> {
    let mut results = Vec::new();
    read_group_with(sensors, inputs, rngs, &mut Scratch::new(), &mut results);
    results
}

fn plan() -> BatchPlan {
    BatchPlan::new(Technology::n65(), SensorSpec::default_65nm())
        .unwrap()
        .read_at(&[10.0, 85.0])
}

/// A fault plan that makes the joint 3×3 conversion solve diverge under
/// the default Newton tuning (the measured PSROs contradict each other by
/// almost two decades) while both channels still pass plausibility gating:
/// the solver escalates through `SolverRetuned` to `RomFallback`.
fn diverging_faults() -> FaultPlan {
    FaultPlan::new()
        .with(Fault::SlowRo {
            channel: Channel::PsroN,
            replica: ReplicaSel::All,
            factor: 0.1,
        })
        .with(Fault::SlowRo {
            channel: Channel::PsroP,
            replica: ReplicaSel::All,
            factor: 8.0,
        })
}

#[test]
fn edge_populations_match_the_scalar_oracle() {
    // 0 = empty, 1 = lone masked lane, 7/9 = tails straddling a chunk
    // boundary, 8 = exactly one full chunk.
    let p = plan();
    let model = VariationModel::new(&Technology::n65());
    for n in [0usize, 1, 7, 8, 9] {
        let cfg = McConfig::new(n, 0x1a9e ^ n as u64);
        let lane = p.run_population(&cfg, &model);
        let scalar = p.run_population_scalar(&cfg, &model);
        assert_eq!(lane.len(), n);
        assert_eq!(lane, scalar, "population of {n} diverged from the oracle");
        for r in &lane {
            r.as_ref().expect("nominal-variation dies convert");
        }
    }
}

#[test]
fn convert_batch_edge_sizes_match_a_scalar_loop() {
    let die = DieSample::nominal();
    let boot = SensorInputs::new(&die, DieSite::CENTER, Celsius(25.0));
    for n in [0usize, 1, 7, 8, 9] {
        let mut sensor = PtSensor::new(Technology::n65(), SensorSpec::default_65nm()).unwrap();
        let mut rng = Pcg64::seed_from_u64(0xba7c ^ n as u64);
        sensor.prepare(&boot, &mut rng).unwrap();
        let inputs: Vec<SensorInputs<'_>> = (0..n)
            .map(|i| SensorInputs::new(&die, DieSite::CENTER, Celsius(-10.0 + 14.0 * i as f64)))
            .collect();

        let mut rng_loop = Pcg64::seed_from_u64(0x5eed ^ n as u64);
        let looped: Result<Vec<_>, _> = inputs
            .iter()
            .map(|i| sensor.convert(i, &mut rng_loop))
            .collect();
        let mut rng_batch = Pcg64::seed_from_u64(0x5eed ^ n as u64);
        let batched = sensor.convert_batch(&inputs, &mut rng_batch);

        assert_eq!(looped.unwrap(), batched.unwrap(), "batch of {n} diverged");
        assert_eq!(rng_loop.next_u64(), rng_batch.next_u64());
    }
}

/// What the first sensor of a [`group`] is; every other member is
/// calibrated.
#[derive(Clone, Copy, PartialEq)]
enum First {
    Calibrated,
    Uncalibrated,
    ParityCorrupted,
}

/// `n` identically seeded sensors, each with its own stream.
fn group(n: usize, first: First) -> (Vec<PtSensor>, Vec<Pcg64>) {
    let die = DieSample::nominal();
    let boot = SensorInputs::new(&die, DieSite::CENTER, Celsius(25.0));
    (0..n)
        .map(|k| {
            let mut s = PtSensor::new(Technology::n65(), SensorSpec::default_65nm()).unwrap();
            let mut rng = Pcg64::seed_from_u64(0x9e0 ^ k as u64);
            if k > 0 || first != First::Uncalibrated {
                s.prepare(&boot, &mut rng).unwrap();
            }
            if k == 0 && first == First::ParityCorrupted {
                s.inject_faults(FaultPlan::single(Fault::CalibRegisterSeu {
                    register: 2,
                    bit: 9,
                }));
            }
            (s, rng)
        })
        .unzip()
}

#[test]
fn read_group_edge_sizes_match_per_sensor_reads() {
    // 1 = the lone die of the scalar selection, 7/9 = tails straddling a
    // chunk boundary, 8 = exactly one full chunk.
    let die = DieSample::nominal();
    for n in [1usize, 7, 8, 9] {
        let inputs: Vec<SensorInputs<'_>> = (0..n)
            .map(|i| SensorInputs::new(&die, DieSite::CENTER, Celsius(-10.0 + 14.0 * i as f64)))
            .collect();
        for first in [
            First::Calibrated,
            First::Uncalibrated,
            First::ParityCorrupted,
        ] {
            let (sensors, mut rngs) = group(n, first);
            let refs: Vec<&PtSensor> = sensors.iter().collect();
            let mut rng_refs: Vec<&mut Pcg64> = rngs.iter_mut().collect();
            let grouped = read_group(&refs, &inputs, &mut rng_refs);

            let (oracle, mut oracle_rngs) = group(n, first);
            for k in 0..n {
                let expected = oracle[k].read(&inputs[k], &mut oracle_rngs[k]);
                assert_eq!(grouped[k], expected, "group of {n}, member {k} diverged");
                assert_eq!(rngs[k].next_u64(), oracle_rngs[k].next_u64());
            }
            match first {
                First::Calibrated => assert!(grouped[0].is_ok()),
                First::Uncalibrated => {
                    assert_eq!(grouped[0], Err(SensorError::NotCalibrated));
                }
                First::ParityCorrupted => assert!(matches!(
                    grouped[0],
                    Err(SensorError::CalibrationCorrupted { .. })
                )),
            }
        }
    }
}

forall! {
    #![cases = 8]

    #[test]
    fn every_tail_length_is_bit_identical_to_the_oracle(
        tail in 0u64..8,
        chunks in 0u64..2,
        seed in 0u64..1_000_000,
    ) {
        let n = (chunks as usize) * LANES + tail as usize;
        let p = plan();
        let model = VariationModel::new(&Technology::n65());
        let cfg = McConfig::new(n, seed);
        assert_eq!(
            p.run_population(&cfg, &model),
            p.run_population_scalar(&cfg, &model),
            "population of {n} (seed {seed:#x}) diverged from the oracle"
        );
    }

    #[test]
    fn divergence_in_lane_k_falls_back_without_perturbing_neighbors(
        k in 0u64..8,
        seed in 0u64..1_000_000,
        dvt in -0.015f64..0.015,
    ) {
        let k = k as usize;
        let mut die = DieSample::nominal();
        die.d_vtn_d2d = Volt(dvt);
        die.d_vtp_d2d = Volt(-dvt);
        let boot = SensorInputs::new(&die, DieSite::CENTER, Celsius(25.0));

        // One calibrated sensor per lane; lane k carries the fault plan
        // that defeats the default Newton tuning.
        let build = |with_fault: bool| {
            let mut sensors = Vec::with_capacity(LANES);
            let mut rngs = Vec::with_capacity(LANES);
            for lane in 0..LANES {
                let mut s =
                    PtSensor::new(Technology::n65(), SensorSpec::default_65nm()).unwrap();
                let mut rng = Pcg64::seed_from_u64(seed ^ (0x1a2e << 8) ^ lane as u64);
                s.prepare(&boot, &mut rng).unwrap();
                if with_fault && lane == k {
                    s.inject_faults(diverging_faults());
                }
                sensors.push(s);
                rngs.push(rng);
            }
            (sensors, rngs)
        };

        // Lane path: one read_group over all eight sensors.
        let (sensors, mut rngs) = build(true);
        let inputs: Vec<SensorInputs<'_>> = (0..LANES)
            .map(|_| SensorInputs::new(&die, DieSite::CENTER, Celsius(85.0)))
            .collect();
        let refs: Vec<&PtSensor> = sensors.iter().collect();
        let mut rng_refs: Vec<&mut Pcg64> = rngs.iter_mut().collect();
        let grouped = read_group(&refs, &inputs, &mut rng_refs);

        // Scalar oracle: identically prepared sensors, one read each.
        let (oracle_sensors, mut oracle_rngs) = build(true);
        for lane in 0..LANES {
            let expected = oracle_sensors[lane]
                .read(&inputs[lane], &mut oracle_rngs[lane])
                .unwrap();
            let got = grouped[lane].as_ref().unwrap();
            assert_eq!(got, &expected, "lane {lane} diverged from the oracle");
        }

        // The faulted lane really took the escalation ladder…
        let events = grouped[k].as_ref().unwrap().health.events().to_vec();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, HealthEvent::SolverRetuned { .. })),
            "lane {k} never retuned: {events:?}"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, HealthEvent::RomFallback { .. })),
            "lane {k} never hit the ROM fallback: {events:?}"
        );

        // …and its neighbors are bit-identical to a group with no faulted
        // lane at all (per-lane RNG streams are independent, so the fault
        // must not leak across lanes).
        let (clean_sensors, mut clean_rngs) = build(false);
        let clean_refs: Vec<&PtSensor> = clean_sensors.iter().collect();
        let mut clean_rng_refs: Vec<&mut Pcg64> = clean_rngs.iter_mut().collect();
        let clean = read_group(&clean_refs, &inputs, &mut clean_rng_refs);
        for lane in (0..LANES).filter(|&l| l != k) {
            assert_eq!(
                grouped[lane].as_ref().unwrap(),
                clean[lane].as_ref().unwrap(),
                "faulted lane {k} perturbed neighbor {lane}"
            );
        }
    }
}

//! `dtm_loop`: the closed-loop DTM campaign in the R3 shape.
//!
//! Each episode is one four-tier stack: four dies, a seeded workload
//! trace, a `hottest_site` placement solve, then a nominal-sensing arm and
//! a DVS-sensing arm on the same trace at the 2 ms control period.
//! Episodes run over `run_parallel_with`.

use crate::stats::{median, Digest, Dist, Sheet};
use crate::trace::{Tracer, NO_PARENT};
use crate::yardstick::Gauge;
use ptsim_baselines::dvs::DvsDtmSensing;
use ptsim_core::dtm::{
    hottest_site, run_dtm_loop, DtmConfig, DtmController, DtmOutcome, DtmSensing, DtmStepRecord,
    DvfsTable, NominalSensing, SensingMode, WorkloadTrace,
};
use ptsim_core::monitor::StackMonitor;
use ptsim_core::{SensorError, SensorSpec};
use ptsim_device::process::Technology;
use ptsim_device::units::{Celsius, Joule};
use ptsim_mc::driver::{run_parallel_metered, run_parallel_with, McConfig};
use ptsim_mc::model::VariationModel;
use ptsim_rng::{Pcg64, Rng, RngCore};
use ptsim_thermal::solve::TransientScratch;
use ptsim_thermal::{
    solve_steady_state, solve_steady_state_mg, step_transient_with, MgOptions, SolveOptions,
    ThermalStack,
};
use ptsim_tsv::topology::StackTopology;
use std::time::{Duration, Instant};

/// The R3 campaign's limit band and containment budget, °C.
const T_LIMIT_C: f64 = 45.0;
const T_RELEASE_C: f64 = 42.0;
pub const OVERSHOOT_BUDGET_C: f64 = 18.0;
/// Episodes per group of the reported worst-case overshoot: one four-tier
/// stack each, so a group is a 16-die fleet.
const OVERSHOOT_GROUP: usize = 4;

#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Worker threads of `run_parallel_with`.
    pub threads: usize,
    /// Episodes per batch, control steps per arm.
    pub episodes: usize,
    pub steps: usize,
    /// Leading episodes of the first batch re-run on another thread count.
    pub check_episodes: usize,
}

/// What every episode shares: technology, variation model and sensor
/// design, and the reference four-tier topology.
pub struct Setup {
    tech: Technology,
    model: VariationModel,
    spec: SensorSpec,
    topo: StackTopology,
}

impl Setup {
    pub fn new() -> Setup {
        let tech = Technology::n65();
        Setup {
            model: VariationModel::new(&tech),
            tech,
            spec: SensorSpec::default_65nm(),
            topo: StackTopology::reference_four_tier(),
        }
    }
}

/// One episode's inputs, drawn from its own stream.
struct Episode {
    monitor: StackMonitor,
    trace: WorkloadTrace,
    nom_seed: u64,
    dvs_seed: u64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeRun {
    pub nominal: DtmOutcome,
    pub dvs: DtmOutcome,
}

fn controller() -> DtmController {
    DtmController::new(
        DvfsTable::default_six_point(),
        DtmConfig {
            t_limit: Celsius(T_LIMIT_C),
            t_release: Celsius(T_RELEASE_C),
            ..DtmConfig::default()
        },
    )
    .expect("valid controller config")
}

/// Draws the episode and solves its placement, as a span when traced.
fn episode(
    s: &Setup,
    idx: u64,
    rng: &mut Pcg64,
    steps: usize,
    tracer: Option<&mut Tracer>,
) -> Episode {
    let tiers = s.topo.thermal_config().tiers as u64;
    let dies = (0..tiers)
        .map(|t| s.model.sample_die_with_id(rng, idx * tiers + t))
        .collect();
    let trace = WorkloadTrace::synth(rng.gen(), steps);
    let nom_seed = rng.gen();
    let dvs_seed = rng.gen();
    let mut scratch = s.topo.build_thermal().expect("reference stack builds");
    let mut place = || hottest_site(&mut scratch, &trace, 0).expect("placement solve converges");
    let site = match tracer {
        Some(t) => t.time("core.placement", NO_PARENT, idx, place),
        None => place(),
    };
    let monitor =
        StackMonitor::new(s.topo.clone(), dies, site, &s.tech, s.spec).expect("monitor builds");
    Episode {
        monitor,
        trace,
        nom_seed,
        dvs_seed,
    }
}

fn nominal_stacks(s: &Setup) -> Vec<NominalSensing> {
    (0..4)
        .map(|_| NominalSensing::new(&s.tech, s.spec).expect("sensor builds"))
        .collect()
}

fn dvs_stacks(s: &Setup) -> Vec<DvsDtmSensing> {
    (0..4)
        .map(|_| DvsDtmSensing::new(&s.tech, s.spec).expect("sensor builds"))
        .collect()
}

fn arm<S: DtmSensing>(e: &Episode, sensing: &mut [S], steps: usize, seed: u64) -> DtmOutcome {
    let mut thermal = e.monitor.build_thermal().expect("reference stack builds");
    let mut rng = Pcg64::seed_from_u64(seed);
    run_dtm_loop(
        &e.monitor,
        &mut thermal,
        sensing,
        &mut controller(),
        &e.trace,
        0,
        steps,
        &mut rng,
    )
    .expect("closed loop runs")
}

/// One episode, both arms, untraced; `loop_time` receives the time spent
/// inside `run_dtm_loop`.
fn run_episode(
    s: &Setup,
    idx: u64,
    rng: &mut Pcg64,
    steps: usize,
    loop_time: &mut Duration,
) -> EpisodeRun {
    let e = episode(s, idx, rng, steps, None);
    let (mut nom, mut dvs) = (nominal_stacks(s), dvs_stacks(s));
    let t = Instant::now();
    let nominal = arm(&e, &mut nom, steps, e.nom_seed);
    let dvs = arm(&e, &mut dvs, steps, e.dvs_seed);
    *loop_time += t.elapsed();
    EpisodeRun { nominal, dvs }
}

fn batch(
    s: &Setup,
    p: &Params,
    base_seed: u64,
    episodes: usize,
    threads: usize,
) -> Vec<EpisodeRun> {
    run_parallel_with(
        &McConfig {
            n_dies: episodes,
            base_seed,
            threads,
        },
        || (),
        |_, idx, rng| run_episode(s, idx, rng, p.steps, &mut Duration::default()),
    )
}

fn digest(d: &mut Digest, runs: &[EpisodeRun]) {
    for r in runs {
        for o in [&r.nominal, &r.dvs] {
            d.f64(o.peak_true.0);
            d.f64(o.throttle_duty);
            d.f64(o.worst_lag_error);
            d.f64(o.mean_lag_error);
            d.f64(o.sensing_energy.0);
            d.f64(o.dvs_read_fraction);
            d.u64(o.actuations as u64);
            d.u64(o.min_level as u64);
            for rec in &o.records {
                d.u64(rec.level as u64);
                d.f64(rec.reported_hottest.0);
                d.f64(rec.true_peak.0);
            }
        }
    }
}

/// The untraced measurement, one batch of episodes per round (see
/// `mcpop::Measure` for why rounds).
pub struct Measure<'a> {
    s: &'a Setup,
    p: &'a Params,
    seed: u64,
    /// Per batch: steps per host second and per reference second.
    rates: Vec<(f64, f64)>,
    all: Vec<EpisodeRun>,
}

impl<'a> Measure<'a> {
    pub fn new(s: &'a Setup, p: &'a Params, seed: u64) -> Self {
        Measure {
            s,
            p,
            seed,
            rates: Vec::new(),
            all: Vec::new(),
        }
    }

    /// Round `k`: one timed batch of episodes; round 0 is checked but not
    /// timed, as in `mcpop::Measure::round`.
    pub fn round(&mut self, k: u64, gauge: &mut Gauge) {
        let p = self.p;
        let (runs, wall, scaled) = gauge.time(|| {
            batch(
                self.s,
                p,
                crate::sub_seed(self.seed, k),
                p.episodes,
                p.threads,
            )
        });
        let steps = (2 * p.episodes * p.steps) as f64;
        if k > 0 {
            self.rates.push((steps / wall, steps / scaled));
        }
        self.all.extend(runs);
    }

    pub fn finish(self, sheet: &mut Sheet) {
        let Measure {
            s,
            p,
            seed,
            rates,
            all,
        } = self;
        println!("dtm steps/s per batch (host, reference): {rates:.0?}");
        sheet.put_rates(
            "dtm_steps_per_s",
            &rates,
            "steps/s",
            format!(
                "median of {} batches of {} episodes x 2 arms x {} steps, set-up included",
                rates.len(),
                p.episodes,
                p.steps
            ),
        );
        report(s, p, crate::sub_seed(seed, 0), &all, sheet);
    }
}

/// Overshoot, containment, digest and the thread-count check over the
/// measured episodes; `first_base` is the first batch's seed.
fn report(s: &Setup, p: &Params, first_base: u64, all: &[EpisodeRun], sheet: &mut Sheet) {
    // The worst overshoot of each group of episodes; the reported figure
    // is the median over groups, which one outlier episode does not move.
    let worst: Vec<f64> = all
        .chunks(OVERSHOOT_GROUP)
        .map(|b| {
            b.iter()
                .flat_map(|r| [r.nominal.overshoot, r.dvs.overshoot])
                .fold(0.0f64, f64::max)
        })
        .collect();
    sheet.put(
        "overshoot_max_c",
        median(&worst),
        "C",
        format!(
            "worst of {OVERSHOOT_GROUP} episodes x 2 arms over the {T_LIMIT_C} C limit, median of {} groups",
            worst.len()
        ),
    );
    // An episode over the containment budget ran correctly; the
    // controller missed its target, which `dtm_contained_frac` shows.
    let broken = all
        .iter()
        .filter(|r| r.nominal.overshoot.max(r.dvs.overshoot) > OVERSHOOT_BUDGET_C)
        .count();
    sheet.ops(all.len() as u64, 0);
    sheet.put(
        "dtm_contained_frac",
        1.0 - broken as f64 / all.len().max(1) as f64,
        "ratio",
        format!(
            "{} of {} episodes kept both arms within {OVERSHOOT_BUDGET_C} C over the limit",
            all.len() - broken,
            all.len()
        ),
    );
    let mut d = Digest::default();
    digest(&mut d, all);
    println!("dtm digest: {:016x}", d.0);

    let n = p.check_episodes.min(p.episodes);
    let other = if p.threads == 1 { 2 } else { 1 };
    let again = batch(s, p, first_base, n, other);
    sheet.check(again[..] == all[..n], || {
        format!(
            "DTM outcomes of the first {n} episodes differ between {} and {other} threads",
            p.threads
        )
    });
}

fn cfg_err(name: &'static str) -> impl Fn(ptsim_thermal::ThermalError) -> SensorError {
    move |_| SensorError::InvalidConfig {
        name,
        value: f64::NAN,
    }
}

/// `run_dtm_loop` restated step by step from the public API, with a span
/// around every call into a layer. Its outcome must equal
/// `run_dtm_loop`'s on the same inputs; the caller checks that.
#[allow(clippy::too_many_arguments)]
fn traced_loop<S: DtmSensing>(
    e: &Episode,
    sensing: &mut [S],
    steps: usize,
    seed: u64,
    read_span: &'static str,
    t: &mut Tracer,
    ep: u64,
    substeps: &mut Vec<f64>,
) -> Result<DtmOutcome, SensorError> {
    let monitor = &e.monitor;
    let trace = &e.trace;
    let mut thermal = monitor.build_thermal().expect("reference stack builds");
    let mut controller = controller();
    let mut rng = Pcg64::seed_from_u64(seed);
    let rng: &mut dyn RngCore = &mut rng;
    let nodes = monitor.nodes().len();
    let (nx, ny) = (thermal.config().nx, thermal.config().ny);
    let period = controller.config().sample_period;
    let root = t.open("dtm.loop", NO_PARENT, ep);
    let boot = t.open("dtm.boot", root, ep);
    for (i, s) in sensing.iter_mut().enumerate() {
        s.calibrate(&monitor.calibration_inputs(i), rng)?;
        s.set_operating_point(controller.operating_point().vdd)?;
    }
    t.close(boot);
    let mut scratch = TransientScratch::new();
    let mut t_start = vec![0.0f64; nodes];
    let mut records = Vec::with_capacity(steps);
    let mut peak_true = f64::NEG_INFINITY;
    let (mut worst_lag, mut lag_sum, mut energy) = (0.0f64, 0.0f64, 0.0f64);
    let (mut conversions, mut dvs_reads) = (0usize, 0usize);
    for step in 1..=steps {
        let sp = t.open("dtm.step", root, ep);
        let level = controller.level();
        let scale = controller.power_scale();
        let map = t
            .time("core.power_map", sp, ep, || {
                trace.power_map(step - 1, nx, ny, scale)
            })
            .map_err(cfg_err("power map"))?;
        t.time("thermal.set_power", sp, ep, || thermal.set_power(0, map))
            .map_err(cfg_err("set power"))?;
        for (i, ts) in t_start.iter_mut().enumerate() {
            let node = &monitor.nodes()[i];
            *ts = thermal
                .temperature_at(node.tier, node.site.x, node.site.y)
                .map_err(cfg_err("probe"))?
                .0;
        }
        let n = t.time("thermal.transient", sp, ep, || {
            step_transient_with(&mut thermal, period, &mut scratch)
        });
        substeps.push(n as f64);
        let step_peak = thermal.max_temperature(0).map_err(cfg_err("peak"))?.0;
        peak_true = peak_true.max(step_peak);
        let mut true_hottest = f64::NEG_INFINITY;
        let mut reported_hottest = f64::NEG_INFINITY;
        let mut hottest_mode = SensingMode::Nominal;
        for (i, s) in sensing.iter().enumerate() {
            let node = &monitor.nodes()[i];
            let t_end = thermal
                .temperature_at(node.tier, node.site.x, node.site.y)
                .map_err(cfg_err("probe"))?
                .0;
            let window = s.conversion_window().0.clamp(0.0, period.0);
            let alpha = window / period.0;
            let t_seen = t_end - alpha * (t_end - t_start[i]);
            let inputs = monitor.inputs_at(i, Celsius(t_seen));
            let reading = t.time(read_span, sp, ep, || s.read(&inputs, rng))?;
            let lag_err = (reading.temperature.0 - t_end).abs();
            worst_lag = worst_lag.max(lag_err);
            lag_sum += lag_err;
            energy += reading.energy_total().0;
            conversions += 1;
            if s.mode() == SensingMode::DynamicVoltageSelection {
                dvs_reads += 1;
            }
            true_hottest = true_hottest.max(t_end);
            if reading.temperature.0 > reported_hottest {
                reported_hottest = reading.temperature.0;
                hottest_mode = s.mode();
            }
        }
        let action = t.time("core.observe", sp, ep, || {
            controller.observe(step, Celsius(reported_hottest))
        });
        if let Some(op) = action {
            for s in sensing.iter_mut() {
                s.set_operating_point(op.vdd)?;
            }
        }
        records.push(DtmStepRecord {
            step,
            demand: trace.demand(step - 1),
            level,
            true_hottest: Celsius(true_hottest),
            true_peak: Celsius(step_peak),
            reported_hottest: Celsius(reported_hottest),
            mode: hottest_mode,
        });
        t.close(sp);
    }
    t.close(root);
    let t_limit = controller.config().t_limit.0;
    let per_conv = |x: f64| {
        if conversions == 0 {
            0.0
        } else {
            x / conversions as f64
        }
    };
    Ok(DtmOutcome {
        steps,
        peak_true: Celsius(peak_true),
        overshoot: (peak_true - t_limit).max(0.0),
        throttle_duty: controller.throttle_duty(),
        worst_lag_error: worst_lag,
        mean_lag_error: per_conv(lag_sum),
        sensing_energy: Joule(energy),
        dvs_read_fraction: per_conv(dvs_reads as f64),
        actuations: controller.actuations(),
        min_level: controller.min_level(),
        records,
    })
}

/// Per-control-step costs the reconciliation adds up, µs.
pub struct StepLayers {
    /// Untraced `run_dtm_loop` time per control step, and traced.
    pub untraced_us: f64,
    pub traced_us: f64,
    /// Summed self time per step of each traced layer, in report order.
    pub layers: Vec<(&'static str, f64)>,
}

struct Worker {
    tracer: Tracer,
    substeps: Vec<f64>,
}

/// The traced run: the same episodes untraced (through `run_dtm_loop`)
/// and traced (through [`traced_loop`]), plus the steady-state solvers on
/// eight placement stacks.
pub fn trace(
    s: &Setup,
    p: &Params,
    seed: u64,
    sheet: &mut Sheet,
    spans: &mut Tracer,
) -> StepLayers {
    let base = crate::sub_seed(seed, 0);
    let cfg = McConfig {
        n_dies: p.episodes,
        base_seed: base,
        threads: p.threads,
    };
    let epoch = Instant::now();
    let wall = Instant::now();
    let (untraced, reports) = run_parallel_metered(
        &cfg,
        || (Duration::ZERO, Duration::ZERO),
        |(busy, loops), idx, rng| {
            let t = Instant::now();
            let r = run_episode(s, idx, rng, p.steps, loops);
            *busy += t.elapsed();
            r
        },
    );
    let wall = wall.elapsed();
    let busy: Duration = reports.iter().map(|r| r.ctx.0).sum();
    let loops: Duration = reports.iter().map(|r| r.ctx.1).sum();
    sheet.put(
        "mc.driver_busy_frac",
        busy.as_secs_f64() / (p.threads as f64 * wall.as_secs_f64()),
        "ratio",
        format!("{} episodes on {} threads", p.episodes, p.threads),
    );

    let (traced, reports) = run_parallel_metered(
        &cfg,
        || Worker {
            tracer: Tracer::new(epoch),
            substeps: Vec::new(),
        },
        |w, idx, rng| {
            let e = episode(s, idx, rng, p.steps, Some(&mut w.tracer));
            let (mut nom, mut dvs) = (nominal_stacks(s), dvs_stacks(s));
            let nominal = traced_loop(
                &e,
                &mut nom,
                p.steps,
                e.nom_seed,
                "sense.read.nominal",
                &mut w.tracer,
                idx,
                &mut w.substeps,
            );
            let dvs = traced_loop(
                &e,
                &mut dvs,
                p.steps,
                e.dvs_seed,
                "sense.read.dvs",
                &mut w.tracer,
                idx,
                &mut w.substeps,
            );
            (nominal, dvs)
        },
    );
    for (idx, (u, (n, d))) in untraced.iter().zip(&traced).enumerate() {
        let same =
            n.as_ref().is_ok_and(|n| *n == u.nominal) && d.as_ref().is_ok_and(|d| *d == u.dvs);
        sheet.check(same, || {
            format!("traced DTM loop differs from run_dtm_loop on episode {idx}")
        });
    }
    sheet.ops(untraced.len() as u64 * 2, 0);
    let mut tracer = Tracer::new(epoch);
    let mut substeps = Vec::new();
    for r in reports {
        tracer.absorb(r.ctx.tracer);
        substeps.extend(r.ctx.substeps);
    }
    let total_steps = (2 * p.episodes * p.steps) as f64;
    let q50 = |name: &str| Dist::new(tracer.us(name)).p50();
    let n = |name: &str| format!("n={}", tracer.us(name).len());
    sheet.put(
        "core.dtm_read_us.nominal",
        q50("sense.read.nominal"),
        "us",
        n("sense.read.nominal"),
    );
    sheet.put(
        "baselines.dvs_read_us",
        q50("sense.read.dvs"),
        "us",
        n("sense.read.dvs"),
    );
    sheet.put(
        "core.power_map_us",
        q50("core.power_map"),
        "us",
        n("core.power_map"),
    );
    sheet.put(
        "core.observe_ns",
        q50("core.observe") * 1e3,
        "ns",
        n("core.observe"),
    );
    sheet.put(
        "core.placement_ms",
        q50("core.placement") / 1e3,
        "ms",
        n("core.placement"),
    );
    sheet.put(
        "thermal.transient_step_us.p50",
        q50("thermal.transient"),
        "us",
        n("thermal.transient"),
    );
    sheet.put(
        "thermal.substeps",
        substeps.iter().sum::<f64>() / substeps.len().max(1) as f64,
        "substeps",
        "mean explicit sub-steps per 2 ms control step",
    );

    let per_step = |name: &str| tracer.self_us(name).iter().sum::<f64>() / total_steps;
    let layers = vec![
        ("sensor boot (4 calibrations)", per_step("dtm.boot")),
        ("WorkloadTrace::power_map", per_step("core.power_map")),
        ("ThermalStack::set_power", per_step("thermal.set_power")),
        ("step_transient_with", per_step("thermal.transient")),
        ("NominalSensing::read", per_step("sense.read.nominal")),
        ("DvsDtmSensing::read", per_step("sense.read.dvs")),
        ("DtmController::observe", per_step("core.observe")),
    ];
    let traced_us = tracer.us("dtm.loop").iter().sum::<f64>() / total_steps;
    spans.absorb(tracer);

    steady_solvers(s, p, seed, sheet);
    StepLayers {
        untraced_us: loops.as_secs_f64() * 1e6 / total_steps,
        traced_us,
        layers,
    }
}

/// Placement-stack steady solves: the Gauss–Seidel oracle `hottest_site`
/// uses, and multigrid on the same stack, checked to agree.
fn steady_solvers(s: &Setup, p: &Params, seed: u64, sheet: &mut Sheet) {
    let mut gs_ms = Vec::new();
    let mut mg_ms = Vec::new();
    let mut gs_iters = Vec::new();
    let mut mg_cycles = Vec::new();
    let mut rng = Pcg64::seed_from_u64(crate::sub_seed(seed, 1));
    for _ in 0..8 {
        let trace = WorkloadTrace::synth(rng.gen(), p.steps);
        let mut a: ThermalStack = s.topo.build_thermal().expect("reference stack builds");
        let (nx, ny) = (a.config().nx, a.config().ny);
        let map = trace
            .power_map(trace.peak_demand_step(), nx, ny, 1.0)
            .expect("power map builds");
        a.set_power(0, map).expect("tier 0 exists");
        let mut b = a.clone();
        let t = Instant::now();
        let gs = solve_steady_state(&mut a, &SolveOptions::default()).expect("GS converges");
        gs_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let mg = solve_steady_state_mg(&mut b, &MgOptions::default()).expect("MG converges");
        mg_ms.push(t.elapsed().as_secs_f64() * 1e3);
        gs_iters.push(gs.iterations as f64);
        mg_cycles.push(mg.iterations as f64);
        let tiers = a.config().tiers;
        let mut worst = 0.0f64;
        for tier in 0..tiers {
            for iy in 0..ny {
                for ix in 0..nx {
                    let (x, y) = ((ix as f64 + 0.5) / nx as f64, (iy as f64 + 0.5) / ny as f64);
                    let ta = a.temperature_at(tier, x, y).expect("in grid").0;
                    let tb = b.temperature_at(tier, x, y).expect("in grid").0;
                    worst = worst.max((ta - tb).abs());
                }
            }
        }
        sheet.check(worst <= 0.01, || {
            format!("multigrid and Gauss-Seidel differ by {worst} C")
        });
    }
    sheet.put(
        "thermal.steady_gs_ms",
        median(&gs_ms),
        "ms",
        "median of 8 placement stacks",
    );
    sheet.put("thermal.steady_gs_iters", median(&gs_iters), "sweeps", "");
    sheet.put(
        "thermal.steady_mg_ms",
        median(&mg_ms),
        "ms",
        "median of 8 placement stacks",
    );
    sheet.put("thermal.mg_cycles", median(&mg_cycles), "cycles", "");
}

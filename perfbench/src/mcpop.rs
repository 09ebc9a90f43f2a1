//! `mc_population`: the offline Monte-Carlo campaign.
//!
//! An analytic-model [`BatchPlan`] calibrates each die at boot and converts
//! it at −20/20/60/100 °C through the lane kernel (as in ablation A1); a
//! characterized-model (ROM) plan runs a smaller population through the
//! scalar path. Populations are fixed in number and size for a given
//! `--seconds`, so their outputs, and the digest printed over them, depend
//! on the seed alone.

use crate::stats::{median, Digest, Dist, Sheet};
use crate::trace::{Tracer, NO_PARENT};
use crate::yardstick::Gauge;
use ptsim_core::bank::RoClass;
use ptsim_core::golden::CharacterizationSpace;
use ptsim_core::pipeline::read_group_with;
use ptsim_core::{
    BatchPlan, DieConversion, PtSensor, Scratch, SensorError, SensorInputs, SensorSpec,
};
use ptsim_device::process::Technology;
use ptsim_device::units::Celsius;
use ptsim_mc::die::DieSite;
use ptsim_mc::driver::{die_field_seed, die_rng, McConfig};
use ptsim_mc::model::VariationModel;
use ptsim_rng::{Pcg64, Rng};
use std::time::Instant;

pub const TEMPS: [f64; 4] = [-20.0, 20.0, 60.0, 100.0];
/// The paper's inaccuracy budget: temperature, ΔVtn and ΔVtp.
const BUDGET: (f64, f64, f64) = (1.5, 1.6, 0.8);

#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Worker threads of every population run.
    pub threads: usize,
    /// Dies in each analytic and each ROM population.
    pub pop_dies: usize,
    pub rom_dies: usize,
    /// Leading dies of the first population re-run through the scalar
    /// oracle and on another thread count.
    pub check_dies: usize,
}

pub struct Setup {
    model: VariationModel,
    plan: BatchPlan,
    rom: BatchPlan,
    pub characterize_s: f64,
}

impl Setup {
    /// Technology and variation model, the analytic plan, and the ROM plan
    /// with its characterization (`characterize_s` times the ROM plan's
    /// construction and characterization).
    pub fn new() -> Setup {
        let tech = Technology::n65();
        let model = VariationModel::new(&tech);
        let spec = SensorSpec::default_65nm();
        let plan = BatchPlan::new(tech.clone(), spec)
            .expect("default sensor builds")
            .read_at(&TEMPS);
        let t = Instant::now();
        let rom = BatchPlan::new(tech, spec)
            .expect("default sensor builds")
            .with_characterized_model(CharacterizationSpace::default())
            .expect("characterization converges")
            .read_at(&TEMPS);
        Setup {
            model,
            plan,
            rom,
            characterize_s: t.elapsed().as_secs_f64(),
        }
    }
}

type Population = Vec<Result<DieConversion, SensorError>>;

fn cfg(n_dies: usize, base_seed: u64, threads: usize) -> McConfig {
    McConfig {
        n_dies,
        base_seed,
        threads,
    }
}

/// Folds a population's outputs into `d`; `Err` dies fold their index.
fn digest(d: &mut Digest, pop: &[Result<DieConversion, SensorError>]) {
    for (i, r) in pop.iter().enumerate() {
        d.u64(i as u64);
        match r {
            Ok(c) => {
                d.f64(c.calibration.calibration.d_vtn().0);
                d.f64(c.calibration.calibration.d_vtp().0);
                for r in &c.readings {
                    d.f64(r.temperature.0);
                    d.f64(r.d_vtn.0);
                    d.f64(r.d_vtp.0);
                    d.f64(r.energy_total().0);
                    d.u64(r.health.status() as u64);
                }
            }
            Err(_) => d.u64(u64::MAX),
        }
    }
}

fn pop_digest(pop: &[Result<DieConversion, SensorError>]) -> u64 {
    let mut d = Digest::default();
    digest(&mut d, pop);
    d.0
}

/// Worst errors against each die's true parameters, re-sampled under the
/// plan's two-stream discipline: (|T err| °C, |ΔVtn err| mV, |ΔVtp err| mV),
/// and the worst |T err| at each scheduled temperature.
fn worst_errors(s: &Setup, base_seed: u64, pop: &Population) -> ((f64, f64, f64), [f64; 4]) {
    let proto: PtSensor = s.plan.sensor();
    let site = |class| proto.bank().site_of(class, DieSite::CENTER);
    let (site_n, site_p) = (site(RoClass::PsroN), site(RoClass::PsroP));
    let points = [RoClass::PsroN, RoClass::PsroP, RoClass::Tsro].map(|c| (site(c).x, site(c).y));
    let mut sampler = s.model.sampler();
    let (vtn_mask, vtp_mask) = sampler.field_masks(&points);
    let mut worst = (0.0f64, 0.0f64, 0.0f64);
    let mut by_temp = [0.0f64; 4];
    for (i, r) in pop.iter().enumerate() {
        let Ok(c) = r else { continue };
        let i = i as u64;
        let mut rng = die_rng(base_seed, i);
        let die = sampler.sample_die_sparse(
            &mut rng,
            die_field_seed(base_seed, i),
            i,
            &vtn_mask,
            &vtp_mask,
        );
        let cal = &c.calibration.calibration;
        worst.1 = worst
            .1
            .max((cal.d_vtn() - die.d_vtn_at(site_n)).millivolts().abs());
        worst.2 = worst
            .2
            .max((cal.d_vtp() - die.d_vtp_at(site_p)).millivolts().abs());
        for ((reading, t), w) in c.readings.iter().zip(TEMPS).zip(&mut by_temp) {
            *w = w.max((reading.temperature.0 - t).abs());
        }
    }
    worst.0 = by_temp.iter().fold(0.0, |a, &b| a.max(b));
    (worst, by_temp)
}

/// The untraced measurement, one round at a time so the caller can
/// interleave it with the DTM campaign: host slowdowns then fall on both
/// alike, and each metric's median spans the whole run.
pub struct Measure<'a> {
    s: &'a Setup,
    p: &'a Params,
    seed: u64,
    /// Per population: dies per host second and per reference second.
    rates: Vec<(f64, f64)>,
    rom_rates: Vec<(f64, f64)>,
    pops: Vec<(u64, Population)>,
    rom_pops: Vec<(u64, Population)>,
}

impl<'a> Measure<'a> {
    pub fn new(s: &'a Setup, p: &'a Params, seed: u64) -> Self {
        Measure {
            s,
            p,
            seed,
            rates: Vec::new(),
            rom_rates: Vec::new(),
            pops: Vec::new(),
            rom_pops: Vec::new(),
        }
    }

    /// Round `k`: one analytic and one ROM population, each timed. Round
    /// 0 warms the caches, the allocator and the worker threads; it is
    /// checked but not timed.
    pub fn round(&mut self, k: u64, gauge: &mut Gauge) {
        let (s, p) = (self.s, self.p);
        for (plan, dies, tag, rates, pops) in [
            (&s.plan, p.pop_dies, 1, &mut self.rates, &mut self.pops),
            (
                &s.rom,
                p.rom_dies,
                2,
                &mut self.rom_rates,
                &mut self.rom_pops,
            ),
        ] {
            let base = crate::sub_seed(crate::sub_seed(self.seed, tag), k);
            let (pop, wall, scaled) =
                gauge.time(|| plan.run_population(&cfg(dies, base, p.threads), &s.model));
            if k > 0 {
                rates.push((dies as f64 / wall, dies as f64 / scaled));
            }
            pops.push((base, pop));
        }
    }

    pub fn finish(self, sheet: &mut Sheet) {
        let Measure {
            s,
            p,
            rates,
            rom_rates,
            pops,
            rom_pops,
            ..
        } = self;
        println!(
            "mc dies/s per population (host, reference): analytic {rates:.0?}, ROM {rom_rates:.0?}"
        );
        sheet.put_rates(
            "dies_per_s",
            &rates,
            "dies/s",
            format!(
                "median of {} populations of {} dies, {} conversions each",
                rates.len(),
                p.pop_dies,
                TEMPS.len()
            ),
        );
        sheet.put_rates(
            "rom_dies_per_s",
            &rom_rates,
            "dies/s",
            format!(
                "median of {} populations of {} dies",
                rom_rates.len(),
                p.rom_dies
            ),
        );
        report(s, p, &pops, &rom_pops, sheet);
    }
}

/// Accuracy, energy, digest and the fixed-slice checks over the measured
/// populations.
fn report(
    s: &Setup,
    p: &Params,
    pops: &[(u64, Population)],
    rom_pops: &[(u64, Population)],
    sheet: &mut Sheet,
) {
    let mut worst = (0.0f64, 0.0f64, 0.0f64);
    let mut by_temp = [0.0f64; 4];
    let mut energy = (0.0f64, 0u64);
    let mut digest_all = Digest::default();
    // A die the sensor cannot calibrate or convert is the model's answer
    // for that die, computed correctly: `mc_converted_frac` counts it,
    // the operation ledger does not.
    let (mut dies, mut errored) = (0, 0);
    for (_, pop) in pops.iter().chain(rom_pops) {
        digest(&mut digest_all, pop);
        for e in pop.iter().filter_map(|r| r.as_ref().err()) {
            if errored < 5 {
                println!("mc errored die: {e:?}");
            }
            errored += 1;
        }
        dies += pop.len();
    }
    sheet.ops(dies as u64, 0);
    sheet.put(
        "mc_converted_frac",
        1.0 - errored as f64 / dies.max(1) as f64,
        "ratio",
        format!("{} of {dies} dies calibrated and converted", dies - errored),
    );
    // The budget fraction of each population's worst die; the reported
    // figure is the median over populations, which a single outlier die
    // among the run's populations does not move.
    let mut fracs = Vec::with_capacity(pops.len());
    for (base, pop) in pops {
        let (w, t) = worst_errors(s, *base, pop);
        fracs.push((w.0 / BUDGET.0).max(w.1 / BUDGET.1).max(w.2 / BUDGET.2));
        worst = (worst.0.max(w.0), worst.1.max(w.1), worst.2.max(w.2));
        for (a, b) in by_temp.iter_mut().zip(t) {
            *a = a.max(b);
        }
        for c in pop.iter().flatten() {
            for r in &c.readings {
                energy.0 += r.energy_total().picojoules();
                energy.1 += 1;
            }
        }
    }
    println!(
        "mc worst errors: T {:.3} C, dVtn {:.3} mV, dVtp {:.3} mV over {} dies; worst |T err| at {TEMPS:?} C: {by_temp:.3?}",
        worst.0,
        worst.1,
        worst.2,
        pops.len() * p.pop_dies
    );
    sheet.put(
        "accuracy_budget_frac",
        median(&fracs),
        "ratio",
        format!(
            "worst die of a {}-die population against 1.5 C / 1.6 mV / 0.8 mV, median of {} populations",
            p.pop_dies,
            pops.len()
        ),
    );
    sheet.put(
        "energy_pj_per_conv",
        energy.0 / energy.1.max(1) as f64,
        "pJ",
        format!("mean over {} conversions", energy.1),
    );
    println!("mc digest: {:016x}", digest_all.0);

    // The fixed slice: lane kernel against the scalar oracle, and both
    // plans on another thread count.
    let other = if p.threads == 1 { 2 } else { 1 };
    let (base, first) = &pops[0];
    let n = p.check_dies.min(first.len());
    let scalar = s
        .plan
        .run_population_scalar(&cfg(n, *base, p.threads), &s.model);
    sheet.check(scalar[..] == first[..n], || {
        format!("lane kernel differs from run_population_scalar on the first {n} dies")
    });
    for (plan, (base, pop), arm) in [
        (&s.plan, &pops[0], "analytic"),
        (&s.rom, &rom_pops[0], "ROM"),
    ] {
        let n = p.check_dies.min(pop.len());
        let again = plan.run_population(&cfg(n, *base, other), &s.model);
        sheet.check(pop_digest(&again) == pop_digest(&pop[..n]), || {
            format!(
                "{arm} population digest differs between {} and {other} threads",
                p.threads
            )
        });
    }
}

/// Per-layer costs of the conversion stack, timed around calls into
/// `core` and `mc` from here.
pub fn trace(s: &Setup, p: &Params, seed: u64, sheet: &mut Sheet, spans: &mut Tracer) {
    let mut rng = Pcg64::seed_from_u64(crate::sub_seed(seed, 3));
    let n = 256usize;
    let mut sensors = Vec::with_capacity(n);
    let mut dies = Vec::with_capacity(n);
    let mut rngs = Vec::with_capacity(n);
    for i in 0..n as u64 {
        let mut die_stream = die_rng(crate::sub_seed(seed, 4), i);
        let die = spans.time("mc.sample_die", NO_PARENT, i, || {
            s.model.sample_die_with_id(&mut die_stream, i)
        });
        let mut sensor = s.plan.sensor();
        let boot = SensorInputs::new(&die, DieSite::CENTER, Celsius(25.0));
        let cal = spans.time("core.calibrate", NO_PARENT, i, || {
            sensor.calibrate(&boot, &mut die_stream)
        });
        sheet.check(cal.is_ok(), || {
            format!("calibration of die {i} failed: {cal:?}")
        });
        sensors.push(sensor);
        dies.push(die);
        rngs.push(die_stream);
    }
    let mut scratch = Scratch::new();
    let mut results = Vec::new();
    for round in 0..4u64 {
        for i in 0..n {
            let t = rng.gen_range(TEMPS[0]..TEMPS[3]);
            let inputs = SensorInputs::new(&dies[i], DieSite::CENTER, Celsius(t));
            let r = spans.time(
                "core.convert",
                NO_PARENT,
                round * n as u64 + i as u64,
                || sensors[i].read(&inputs, &mut rngs[i]),
            );
            sheet.check(r.is_ok(), || format!("scalar read failed: {r:?}"));
        }
        for (span, width) in [("core.group1", 1usize), ("core.group8", 8)] {
            for g in (0..n).step_by(width) {
                let t = rng.gen_range(TEMPS[0]..TEMPS[3]);
                let refs: Vec<&PtSensor> = sensors[g..g + width].iter().collect();
                let inputs: Vec<SensorInputs<'_>> = dies[g..g + width]
                    .iter()
                    .map(|d| SensorInputs::new(d, DieSite::CENTER, Celsius(t)))
                    .collect();
                let mut group_rngs: Vec<&mut Pcg64> = rngs[g..g + width].iter_mut().collect();
                spans.time(span, NO_PARENT, g as u64, || {
                    read_group_with(&refs, &inputs, &mut group_rngs, &mut scratch, &mut results)
                });
                sheet.check(results.iter().all(Result::is_ok), || {
                    "group read failed".to_string()
                });
            }
        }
    }
    let q50 = |name: &str, scale: f64| Dist::new(spans.us(name)).p50() * scale;
    for (metric, span, scale) in [
        ("mc.sample_die_us.p50", "mc.sample_die", 1.0),
        ("core.calibrate_us.p50", "core.calibrate", 1.0),
        ("core.convert_us.p50", "core.convert", 1.0),
        ("core.group1_us.p50", "core.group1", 1.0),
        ("core.group8_us_per_die.p50", "core.group8", 1.0 / 8.0),
    ] {
        let d = Dist::new(spans.us(span));
        sheet.put(metric, q50(span, scale), "us", format!("n={}", d.len()));
    }

    // Whole populations: one thread against two, and the ROM plan.
    let base = crate::sub_seed(seed, 5);
    let dies = p.pop_dies;
    let time = |plan: &BatchPlan, threads: usize, n: usize| {
        let t = Instant::now();
        let pop = plan.run_population(&cfg(n, base, threads), &s.model);
        (t.elapsed().as_secs_f64(), pop_digest(&pop))
    };
    let (t1, d1) = time(&s.plan, 1, dies);
    let (t2, d2) = time(&s.plan, 2, dies);
    sheet.check(d1 == d2, || {
        "population digest differs between 1 and 2 threads".to_string()
    });
    sheet.put(
        "core.population_us_per_die",
        t1 * 1e6 / dies as f64,
        "us",
        format!("{dies} dies, 1 thread"),
    );
    sheet.put(
        "mc.scaling_eff",
        t1 / (2.0 * t2),
        "ratio",
        format!("{dies} dies, 1 vs 2 threads"),
    );
    let (tr, _) = time(&s.rom, 1, p.rom_dies);
    sheet.put(
        "core.rom_population_us_per_die",
        tr * 1e6 / p.rom_dies as f64,
        "us",
        format!("{} dies, 1 thread", p.rom_dies),
    );
    sheet.put(
        "core.characterize_s",
        s.characterize_s,
        "s",
        "BatchPlan::new + with_characterized_model",
    );
    let (_, m) = s
        .plan
        .run_population_with_metrics(&cfg(dies, base, p.threads), &s.model);
    let snap = m.snapshot();
    let c = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let conv = c("pipeline.conversions").max(1.0);
    sheet.put(
        "core.newton_iters_per_conv",
        c("solve.newton_iterations") / conv,
        "iters",
        format!("{conv} conversions"),
    );
    sheet.put(
        "core.retry_frac",
        (c("gate.retries") + c("solve.newton_backoffs") + c("solve.rom_fallbacks")) / conv,
        "ratio",
        "gate retries + Newton back-offs + ROM fallbacks per conversion",
    );
}

//! The repository benchmark: one process runs the fleet daemon under
//! open-loop load (`fleet_mix`), the Monte-Carlo campaign
//! (`mc_population`) and the closed-loop DTM campaign (`dtm_loop`), and
//! prints every metric by name and unit.
//!
//! ```text
//! ptsim-perfbench --workload <parallel|serial> --seed <n> --seconds <s> --trace <0|1>
//!                 [--tiny] [--spans <path>]
//! ```
//!
//! The last line of output is `RESULT {json}` with every metric the run
//! measured, its operation ledger and any failed correctness check;
//! `perfbench/run.py` turns it into the benchmark's result line.

mod dtm;
mod fleet;
mod mcpop;
mod stats;
mod trace;
mod yardstick;

use stats::{median, Sheet};
use std::time::Instant;
use trace::Tracer;

/// A seed for one consumer, derived from the run's seed (SplitMix64
/// finalizer over the pair).
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct Workload {
    /// Timed rounds of the interleaved Monte-Carlo and DTM campaigns,
    /// after one untimed warm-up round.
    rounds: u64,
    fleet: fleet::Params,
    mc: mcpop::Params,
    dtm: dtm::Params,
}

const FLEET_DIES: u64 = 64;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// The use case the fleet's offered rates are sized from: the R3 DTM
/// loop, where each four-tier stack's controller reads its four dies once
/// per 2 ms control period. One stack offers 2,000 reads/s; the 64-die
/// fleet (16 stacks) 32,000.
const DTM_PERIOD_S: f64 = 2e-3;
const DIES_PER_STACK: u64 = 4;

/// The workload's sizes. `seconds` scales the fixed amount of work a run
/// measures (about `seconds` on a 2-core machine for `parallel`); `tiny`
/// shrinks it to a smoke test of the output schema.
fn workload(name: &str, seconds: f64, tiny: bool) -> Option<Workload> {
    let threads = match name {
        "parallel" => 2,
        "serial" => 1,
        _ => return None,
    };
    let s = seconds / 12.0;
    let n = |full: f64, small: usize| {
        if tiny {
            small
        } else {
            ((full * s).round() as usize).max(small)
        }
    };
    let stack_rate = DIES_PER_STACK as f64 / DTM_PERIOD_S;
    Some(Workload {
        rounds: if tiny { 2 } else { 9 },
        fleet: fleet::Params {
            n_dies: FLEET_DIES,
            shards: threads as u64,
            // `low`: one stack's controller; `high`: four stacks, a
            // quarter of the fleet; the ladder climbs from one stack past
            // the whole fleet.
            rate_low: stack_rate,
            rate_high: 4.0 * stack_rate,
            low_requests: n(4_000.0, 300),
            high_requests: n(21_000.0, 600),
            ladder_start: stack_rate,
            ladder_step: 1.25,
            ladder_rungs: if tiny { 2 } else { 14 },
            bisect_steps: if tiny { 1 } else { 3 },
            rung_requests: n(2_300.0, 300),
            // Chosen, not derived: the DTM loop itself issues only single
            // reads. The shares add a second request class that holds a
            // shard worker for a whole stripe, and a monitoring probe.
            scan_share: 0.05,
            health_share: 0.01,
        },
        mc: mcpop::Params {
            threads,
            pop_dies: n(8_000.0, 16),
            rom_dies: n(300.0, 8),
            check_dies: if tiny { 8 } else { 24 },
        },
        dtm: dtm::Params {
            threads,
            episodes: n(16.0, 2),
            steps: if tiny { 20 } else { 150 },
            check_episodes: 2,
        },
    })
}

/// Peak resident set of this process, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Everything a workload needs before it is measured.
struct Ready {
    daemon: fleet::Daemon,
    mc: mcpop::Setup,
    dtm: dtm::Setup,
}

fn set_up(w: &Workload, seed: u64) -> Ready {
    Ready {
        daemon: fleet::Daemon::start(w.fleet, sub_seed(seed, 0xf1ee7)),
        mc: mcpop::Setup::new(),
        dtm: dtm::Setup::new(),
    }
}

fn arg(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn usage(msg: &str) -> ! {
    eprintln!("ptsim-perfbench: {msg}");
    eprintln!(
        "usage: ptsim-perfbench --workload <parallel|serial> --seed <n> --seconds <s> --trace <0|1> [--tiny] [--spans <path>]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = arg(&args, "--workload").unwrap_or_else(|| usage("missing --workload"));
    let seed: u64 = arg(&args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage("--seed takes an unsigned integer"));
    let seconds: f64 = arg(&args, "--seconds")
        .and_then(|s| s.parse().ok())
        .filter(|s: &f64| *s > 0.0)
        .unwrap_or_else(|| usage("--seconds takes a positive number"));
    let traced = match arg(&args, "--trace").as_deref() {
        Some("0") => false,
        Some("1") => true,
        _ => usage("--trace takes 0 or 1"),
    };
    let tiny = args.iter().any(|a| a == "--tiny");
    let w = workload(&name, seconds, tiny).unwrap_or_else(|| usage("unknown workload"));
    let mut sheet = Sheet::default();
    let started = Instant::now();

    if traced {
        let ready = set_up(&w, seed);
        let mut spans = Tracer::new(started);
        let read = fleet::trace(&ready.daemon, &mut sheet, &mut spans);
        mcpop::trace(&ready.mc, &w.mc, seed, &mut sheet, &mut spans);
        let step = dtm::trace(&ready.dtm, &w.dtm, seed, &mut sheet, &mut spans);
        ready.daemon.stop();
        reconcile(&sheet, &read, &step);
        if let Some(path) = arg(&args, "--spans") {
            if let Err(e) = spans.write_tsv(std::path::Path::new(&path)) {
                sheet.problem(format!("writing spans to {path}: {e}"));
            } else {
                println!("spans: {} written to {path}", spans.spans.len());
            }
        }
    } else {
        // Set-up runs five times, each scaled by the yardstick around it,
        // and reports the median, so neither one slow set-up nor a slow
        // spell of the host moves `setup_s`; the last one is measured.
        let (mut walls, mut times) = (Vec::new(), Vec::new());
        let mut ready: Option<Ready> = None;
        // Set-up itself runs on one thread (ROM characterization).
        let mut gauge = yardstick::Gauge::new(1);
        for _ in 0..SETUPS {
            if let Some(r) = ready.take() {
                r.daemon.stop();
            }
            let (r, wall, scaled) = gauge.time(|| set_up(&w, seed));
            ready = Some(r);
            walls.push(wall);
            times.push(scaled);
        }
        let ready = ready.expect("set up at least once");
        sheet.put(
            "setup_s",
            median(&times),
            "s",
            format!(
                "median of {} set-ups scaled to a {} s yardstick: {times:.3?}; wall {walls:.3?}",
                times.len(),
                yardstick::REF_S
            ),
        );
        let t = Instant::now();
        fleet::measure(&ready.daemon, &mut sheet);
        println!("== fleet_mix {:.2} s", t.elapsed().as_secs_f64());
        ready.daemon.stop();
        // The two campaigns alternate round by round (see mcpop::Measure).
        let t = Instant::now();
        let mut mc = mcpop::Measure::new(&ready.mc, &w.mc, seed);
        let mut dtm = dtm::Measure::new(&ready.dtm, &w.dtm, seed);
        let threads = w.mc.threads;
        let pin = (threads == 1).then(yardstick::Pin::current_cpu);
        let mut gauge = yardstick::Gauge::new(threads);
        for k in 0..=w.rounds {
            mc.round(k, &mut gauge);
            dtm.round(k, &mut gauge);
        }
        drop(pin);
        println!(
            "== mc_population + dtm_loop {:.2} s",
            t.elapsed().as_secs_f64()
        );
        mc.finish(&mut sheet);
        dtm.finish(&mut sheet);
        sheet.put("peak_rss_mb", peak_rss_mb(), "MiB", "VmHWM");
    }
    println!(
        "error_frac = {} ratio ({} failed of {} attempted)",
        sheet.failed as f64 / sheet.attempted.max(1) as f64,
        sheet.failed,
        sheet.attempted
    );
    println!("wall {:.2} s", started.elapsed().as_secs_f64());
    for (n, v, u, note) in &sheet.metrics {
        println!("{n} = {v} {u} ({note})");
    }
    for p in &sheet.problems {
        println!("CHECK FAILED: {p}");
    }
    println!("RESULT {}", sheet.to_json());
}

/// Prints the sum of layer self times next to the end-to-end figure,
/// with the residual and the tracing overhead.
fn reconcile(sheet: &Sheet, read: &fleet::ReadLayers, step: &dtm::StepLayers) {
    let convert = sheet.get("core.convert_us.p50").unwrap_or(f64::NAN);
    let socket = read.call_p50 - read.submit_p50 - read.codec_p50;
    let layers = [
        ("socket + connection thread (call - submit - codec)", socket),
        (
            "v2 codec (encode/decode request + response)",
            read.codec_p50,
        ),
        ("shard queue hop (Fleet::submit(Ping))", read.queue_hop_p50),
        ("conversion (PtSensor::read)", convert),
    ];
    println!("reconcile fleet_mix @ low, per read (p50, us):");
    println!(
        "  end-to-end, untraced, from due time    {:>9.2}",
        read.e2e_untraced_p50
    );
    let mut sum = 0.0;
    for (name, v) in layers {
        println!("  {name:<52} {v:>9.2}");
        sum += v;
    }
    println!("  sum of layers                          {sum:>9.2}");
    println!(
        "  residual (end-to-end - sum)            {:>9.2}  ({:.0}% of end-to-end; includes Fleet::submit bookkeeping of {:.2} and generator wake-up)",
        read.e2e_untraced_p50 - sum,
        100.0 * (read.e2e_untraced_p50 - sum) / read.e2e_untraced_p50,
        read.submit_p50 - read.queue_hop_p50 - convert
    );
    println!(
        "  tracing overhead (traced - untraced)   {:>9.2}",
        read.e2e_traced_p50 - read.e2e_untraced_p50
    );
    println!("reconcile dtm_loop, per control step (mean over both arms, us):");
    println!(
        "  end-to-end, untraced run_dtm_loop      {:>9.2}",
        step.untraced_us
    );
    let mut sum = 0.0;
    for (name, v) in &step.layers {
        println!("  {name:<38} {v:>9.2}");
        sum += v;
    }
    println!("  sum of layers                          {sum:>9.2}");
    println!(
        "  residual (end-to-end - sum)            {:>9.2}  ({:.0}% of end-to-end)",
        step.untraced_us - sum,
        100.0 * (step.untraced_us - sum) / step.untraced_us
    );
    println!(
        "  tracing overhead (traced - untraced)   {:>9.2}",
        step.traced_us - step.untraced_us
    );
}

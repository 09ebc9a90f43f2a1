//! `fleet_mix`: the fleet daemon under open-loop load over loopback.
//!
//! An in-process `ptsim-fleetd` serves one v2 connection per shard. Each
//! connection follows its own seeded Poisson arrival schedule — mostly
//! single reads to uniformly random dies, a fixed share of whole-stripe
//! `BatchRead` scans and a low-rate `/health` probe — and sends each
//! request at its due time whether or not the system kept up. A
//! connection has one request in flight, so when the daemon falls behind
//! the backlog builds on the generator side; latency is timed from the
//! due time, which charges that wait to the daemon.

use crate::stats::{Dist, Sheet};
use crate::trace::{Tracer, NO_PARENT};
use ptsim_rng::{Pcg64, Rng};
use ptsim_service::protocol::{BatchItem, HealthWire, Quality, Request, Response, MAX_BATCH};
use ptsim_service::{wire, Client, ClientError, Fleet, FleetConfig, Server, ServerConfig};
use std::time::{Duration, Instant};

/// Single-read latency limit at p99, µs: half the DTM loop's 2 ms sample
/// period, so a reading that meets it is in time for the next decision.
pub const LIMIT_US: f64 = 1000.0;
/// The paper's temperature accuracy. A served reading further than this
/// from the requested temperature is out of spec: `fleet_in_spec_frac`
/// counts it, the operation ledger does not (the request was answered
/// correctly by the model; the model misses the spec).
pub const TOLERANCE_C: f64 = 1.5;
/// Requested temperatures: the −20..100 °C span the Monte-Carlo campaign
/// converts at. Above about 70 °C a few dies of a 64-die fleet read more
/// than 1.5 °C off (the model's hot-side calibration error, which
/// `accuracy_budget_frac` also measures), so `fleet_in_spec_frac` is
/// below 1.
const TEMP_C: (f64, f64) = (-20.0, 100.0);

const DEADLINE_MS: u64 = 2_000;
const PRIORITY: u8 = 1;

/// The traffic of one run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub n_dies: u64,
    /// Shard workers, and client connections (one generator thread each).
    pub shards: u64,
    /// Offered rates of the two fixed-rate segments, requests/s over all
    /// connections.
    pub rate_low: f64,
    pub rate_high: f64,
    /// Requests per fixed-rate segment.
    pub low_requests: usize,
    pub high_requests: usize,
    /// The ladder starts at `ladder_start` and multiplies by `ladder_step`
    /// per rung until a rung misses the limit.
    pub ladder_start: f64,
    pub ladder_step: f64,
    pub ladder_rungs: usize,
    pub rung_requests: usize,
    pub bisect_steps: usize,
    /// Shares of whole-stripe scans and `/health` probes in the mix.
    pub scan_share: f64,
    pub health_share: f64,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Read { die: u64, temp: f64 },
    Scan { die0: u64, count: u64, temp: f64 },
    Health,
}

impl Op {
    fn request(self) -> Request {
        match self {
            Op::Read { die, temp } => Request::Read {
                die,
                temp_c: temp,
                priority: PRIORITY,
                deadline_ms: DEADLINE_MS,
            },
            Op::Scan { die0, count, temp } => Request::BatchRead {
                die0,
                count,
                temp_c: temp,
                priority: PRIORITY,
                deadline_ms: DEADLINE_MS,
            },
            Op::Health => Request::Health,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Item {
    due_ns: u64,
    op: Op,
}

/// Dies of `shard`'s stripe (die `d` belongs to shard `d % shards`).
fn stripe_len(p: &Params, shard: u64) -> u64 {
    p.n_dies / p.shards + u64::from(p.n_dies % p.shards > shard)
}

/// One connection's seeded Poisson schedule of `count` requests at
/// `rate` requests/s.
fn schedule(p: &Params, seed: u64, rate: f64, count: usize) -> Vec<Item> {
    let mut rng = Pcg64::seed_from_u64(seed);
    let mut t = 0.0f64;
    (0..count)
        .map(|_| {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / rate;
            let pick: f64 = rng.gen();
            let temp = rng.gen_range(TEMP_C.0..TEMP_C.1);
            let op = if pick < p.scan_share {
                let shard = rng.gen_range(0..p.shards);
                Op::Scan {
                    die0: shard,
                    count: stripe_len(p, shard).min(MAX_BATCH),
                    temp,
                }
            } else if pick < p.scan_share + p.health_share {
                Op::Health
            } else {
                Op::Read {
                    die: rng.gen_range(0..p.n_dies),
                    temp,
                }
            };
            Item {
                due_ns: (t * 1e9) as u64,
                op,
            }
        })
        .collect()
}

/// What the answer to one request was worth.
#[derive(Debug, Clone, Copy)]
struct Verdict {
    /// A well-formed answer of a healthy fleet: the right dies, nominal
    /// quality, every shard up. An unserved request is a failed operation
    /// and a latency miss.
    served: bool,
    /// Every reading within [`TOLERANCE_C`] of the requested temperature.
    accurate: bool,
}

impl Verdict {
    const OK: Verdict = Verdict {
        served: true,
        accurate: true,
    };
    const FAILED: Verdict = Verdict {
        served: false,
        accurate: false,
    };

    fn and(self, o: Verdict) -> Verdict {
        Verdict {
            served: self.served && o.served,
            accurate: self.accurate && o.accurate,
        }
    }
}

fn reading(right_die: bool, temp_c: f64, quality: Quality, want: f64) -> Verdict {
    Verdict {
        served: right_die && quality == Quality::Nominal,
        accurate: (temp_c - want).abs() <= TOLERANCE_C,
    }
}

fn health_ok(h: &HealthWire) -> bool {
    h.shards.iter().all(|s| s.state == "up")
}

/// How far `resp` is a correct answer to `op` from a fleet of `shards`.
fn check(op: Op, shards: u64, resp: &Result<Response, ClientError>) -> Verdict {
    match (op, resp) {
        (
            Op::Read { die, temp },
            Ok(Response::Reading {
                die: d,
                temp_c,
                quality,
                ..
            }),
        ) => reading(*d == die, *temp_c, *quality, temp),
        (Op::Scan { die0, count, temp }, Ok(Response::Batch { items }))
            if items.len() as u64 == count =>
        {
            items.iter().enumerate().fold(Verdict::OK, |v, (k, item)| {
                v.and(match item {
                    BatchItem::Reading {
                        die,
                        temp_c,
                        quality,
                        ..
                    } => reading(*die == die0 + k as u64 * shards, *temp_c, *quality, temp),
                    BatchItem::Rejected { .. } => Verdict::FAILED,
                })
            })
        }
        (Op::Health, Ok(Response::Health(h))) => Verdict {
            served: health_ok(h),
            accurate: true,
        },
        _ => Verdict::FAILED,
    }
}

/// A running daemon with every die calibrated.
pub struct Daemon {
    server: Server,
    addr: String,
    params: Params,
    seed: u64,
}

/// Warms every die of a fleet by scanning each shard's stripe in
/// `MAX_BATCH` chunks (first touch calibrates a die); one thread per shard.
fn warm(params: &Params, submit: impl Fn(Request) -> Response + Sync) {
    std::thread::scope(|s| {
        for shard in 0..params.shards {
            let submit = &submit;
            s.spawn(move || {
                let len = stripe_len(params, shard);
                let mut k = 0;
                while k < len {
                    let count = (len - k).min(MAX_BATCH);
                    let resp = submit(Request::BatchRead {
                        die0: shard + k * params.shards,
                        count,
                        temp_c: 25.0,
                        priority: PRIORITY,
                        deadline_ms: 60_000,
                    });
                    let Response::Batch { items } = resp else {
                        panic!("warm-up scan of shard {shard} refused: {resp:?}");
                    };
                    assert!(
                        items.iter().all(|i| matches!(i, BatchItem::Reading { .. })),
                        "warm-up scan of shard {shard} returned a rejected die"
                    );
                    k += count;
                }
            });
        }
    });
}

fn fleet_config(params: &Params, seed: u64) -> FleetConfig {
    FleetConfig {
        n_dies: params.n_dies,
        n_shards: params.shards,
        queue_depth: 64,
        base_seed: seed,
        ..FleetConfig::default()
    }
}

impl Daemon {
    /// Boots the fleet, binds loopback and calibrates every die.
    pub fn start(params: Params, seed: u64) -> Daemon {
        let fleet = Fleet::start(fleet_config(&params, seed));
        let server =
            Server::bind(fleet, "127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
        let addr = server.local_addr().to_string();
        warm(&params, |req| {
            Client::connect_v2(&addr)
                .and_then(|mut c| c.call(&req))
                .expect("warm-up call")
        });
        Daemon {
            server,
            addr,
            params,
            seed,
        }
    }

    pub fn stop(self) {
        self.server.stop();
        self.server.join();
    }

    fn health(&self) -> HealthWire {
        let mut c = Client::connect_v2(&self.addr).expect("health connect");
        match c.call(&Request::Health).expect("health call") {
            Response::Health(h) => h,
            other => panic!("health answered {other:?}"),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Sample {
    op: Op,
    due_ns: u64,
    lat_us: f64,
    verdict: Verdict,
}

/// What one open-loop segment observed.
struct Segment {
    /// In due-time order.
    samples: Vec<Sample>,
    /// Generator lateness, µs: how late a sleeping generator woke for a
    /// request that was due while its connection was idle.
    lags_us: Vec<f64>,
    /// Deepest shard queue a `/health` probe of the segment saw.
    queue_peak: u64,
    /// Spans of a traced segment.
    tracer: Option<Tracer>,
}

fn is_read(op: Op) -> bool {
    matches!(op, Op::Read { .. })
}

fn is_scan(op: Op) -> bool {
    matches!(op, Op::Scan { .. })
}

impl Segment {
    /// Latencies of the served requests `pick` selects.
    fn dist(&self, pick: fn(Op) -> bool) -> Dist {
        Dist::new(
            self.samples
                .iter()
                .filter(|s| s.verdict.served && pick(s.op))
                .map(|s| s.lat_us)
                .collect(),
        )
    }

    /// The `q` quantile of read latency as the median over consecutive
    /// (by due time) blocks of at least [`BLOCK_READS`] reads, so one burst
    /// of machine noise moves one block, not the reported value. Unserved
    /// reads count as misses (infinite latency) when `failed_as_miss`;
    /// an inaccurate reading was served, and its latency counts.
    /// Returns the value, the block count, and the smallest per-block
    /// sample and beyond-quantile counts.
    fn block_q(&self, q: f64, failed_as_miss: bool) -> (f64, usize, usize, usize) {
        let reads: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| is_read(s.op) && (s.verdict.served || failed_as_miss))
            .map(|s| {
                if s.verdict.served {
                    s.lat_us
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        let blocks = (reads.len() / BLOCK_READS).max(1);
        let size = reads.len().div_ceil(blocks).max(1);
        let per_block: Vec<Dist> = reads.chunks(size).map(|c| Dist::new(c.to_vec())).collect();
        let value = crate::stats::median(&per_block.iter().map(|d| d.q(q)).collect::<Vec<_>>());
        let min_n = per_block.iter().map(Dist::len).min().unwrap_or(0);
        let min_beyond = per_block.iter().map(|d| d.beyond(q)).min().unwrap_or(0);
        (value, per_block.len(), min_n, min_beyond)
    }

    /// Whether the backlog grew: the last tenth of the reads, by due time,
    /// averaged over the latency limit.
    fn backlog_grew(&self) -> bool {
        let reads: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| is_read(s.op))
            .map(|s| s.lat_us)
            .collect();
        let tail = &reads[reads.len() - (reads.len() / 10).max(1)..];
        tail.iter().sum::<f64>() / tail.len() as f64 > LIMIT_US
    }

    fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.verdict.served).count() as u64
    }

    /// Served single reads, and those of them within the tolerance.
    fn in_spec(&self) -> (u64, u64) {
        let served = self
            .samples
            .iter()
            .filter(|s| is_read(s.op) && s.verdict.served);
        let (mut n, mut ok) = (0, 0);
        for s in served {
            n += 1;
            ok += u64::from(s.verdict.accurate);
        }
        (n, ok)
    }
}

/// Makes the calling generator thread punctual: 1 ns timer slack (the
/// Linux default of 50 µs would make every wake-up late) and, where the
/// process may, the lowest real-time priority, so a due request is sent
/// without waiting for the daemon's threads to yield a core. The
/// generator only sleeps or blocks, so it never holds a core.
fn tighten_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        use std::ffi::c_int;
        #[repr(C)]
        struct SchedParam {
            sched_priority: c_int,
        }
        extern "C" {
            fn prctl(option: c_int, ...) -> c_int;
            fn sched_setscheduler(pid: c_int, policy: c_int, param: *const SchedParam) -> c_int;
        }
        const PR_SET_TIMERSLACK: c_int = 29;
        const SCHED_FIFO: c_int = 1;
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and only
        // changes the calling thread's timer slack; no memory is passed.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong);
        }
        let param = SchedParam { sched_priority: 1 };
        // SAFETY: pid 0 names the calling thread and `param` is a valid
        // `struct sched_param` that outlives the call.
        let rc = unsafe { sched_setscheduler(0, SCHED_FIFO, &param) };
        REALTIME.store(rc == 0, std::sync::atomic::Ordering::Relaxed);
    }
}

/// Whether the last generator thread got real-time priority.
pub static REALTIME: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Every connection's schedule of one segment.
fn schedules(p: &Params, seed: u64, rate: f64, count: usize) -> Vec<Vec<Item>> {
    let per_conn = count.div_ceil(p.shards as usize);
    (0..p.shards)
        .map(|c| {
            schedule(
                p,
                crate::sub_seed(seed, c),
                rate / p.shards as f64,
                per_conn,
            )
        })
        .collect()
}

/// Drives each connection's schedule open loop from its own thread.
fn run_segment(d: &Daemon, seed: u64, rate: f64, count: usize, traced: bool) -> Segment {
    let schedules = schedules(&d.params, seed, rate, count);
    let shards = d.params.shards;
    let mut clients: Vec<Client> = schedules
        .iter()
        .map(|_| {
            let mut c = Client::connect_v2(&d.addr).expect("connect v2");
            // Untimed: connection set-up and first-frame buffers.
            let _ = c.call(&Request::Ping { pad: 0 });
            c
        })
        .collect();
    let epoch = Instant::now();
    let t0 = epoch + Duration::from_millis(20);
    let parts: Vec<Segment> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&schedules)
            .enumerate()
            .map(|(c, (client, sched))| {
                s.spawn(move || {
                    tighten_timer_slack();
                    let mut part = Segment {
                        samples: Vec::with_capacity(sched.len()),
                        lags_us: Vec::with_capacity(sched.len()),
                        queue_peak: 0,
                        tracer: traced.then(|| Tracer::new(epoch)),
                    };
                    for (i, it) in sched.iter().enumerate() {
                        let due = t0 + Duration::from_nanos(it.due_ns);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                            part.lags_us.push(due.elapsed().as_secs_f64() * 1e6);
                        }
                        let req = it.op.request();
                        let resp = match &mut part.tracer {
                            Some(t) if is_read(it.op) => {
                                let id = (c * sched.len() + i) as u64;
                                t.time("service.call", NO_PARENT, id, || client.call(&req))
                            }
                            _ => client.call(&req),
                        };
                        let lat_us = due.elapsed().as_secs_f64() * 1e6;
                        if let Ok(Response::Health(h)) = &resp {
                            let deepest = h.shards.iter().map(|s| s.queue_len).max();
                            part.queue_peak = part.queue_peak.max(deepest.unwrap_or(0));
                        }
                        part.samples.push(Sample {
                            op: it.op,
                            due_ns: it.due_ns,
                            lat_us,
                            verdict: check(it.op, shards, &resp),
                        });
                    }
                    part
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect()
    });
    let mut seg = Segment {
        samples: Vec::new(),
        lags_us: Vec::new(),
        queue_peak: 0,
        tracer: traced.then(|| Tracer::new(epoch)),
    };
    for part in parts {
        seg.samples.extend(part.samples);
        seg.lags_us.extend(part.lags_us);
        seg.queue_peak = seg.queue_peak.max(part.queue_peak);
        if let (Some(all), Some(t)) = (&mut seg.tracer, part.tracer) {
            all.absorb(t);
        }
    }
    seg.samples.sort_by_key(|s| s.due_ns);
    seg
}

/// Reads per block: enough for ten samples beyond a block's p99.
const BLOCK_READS: usize = 1_010;

/// One ladder rung: whether it meets the limit (block-median read p99,
/// failures as misses, and no growing backlog).
fn rung(d: &Daemon, seed: u64, rate: f64, count: usize) -> (bool, Segment) {
    let seg = run_segment(d, seed, rate, count, false);
    let (p99, blocks, n, _) = seg.block_q(0.99, true);
    let grew = seg.backlog_grew();
    println!("fleet rung {rate:.0} req/s: read p99 {p99:.1} us (median of {blocks} blocks, n>={n}) backlog_grew={grew}");
    (p99 <= LIMIT_US && !grew, seg)
}

/// The untraced measurement: the two fixed-rate segments, then the ladder
/// (a fixed geometric climb from `rate_high` to the first rung that misses
/// the limit, refined by bisection between the last passing and first
/// failing rung).
pub fn measure(d: &Daemon, sheet: &mut Sheet) {
    let p = d.params;
    let (mut attempted, mut failed, mut reads, mut in_spec) = (0, 0, 0, 0);
    let mut tally = |seg: &Segment| {
        let (n, ok) = seg.in_spec();
        attempted += seg.samples.len() as u64;
        failed += seg.failed();
        reads += n;
        in_spec += ok;
    };
    for (tag, rate, count, seed) in [
        ("low", p.rate_low, p.low_requests, 0x10),
        ("high", p.rate_high, p.high_requests, 0x20),
    ] {
        let seg = run_segment(d, crate::sub_seed(d.seed, seed), rate, count, false);
        for (q, name) in [(0.5, "read_p50_us"), (0.99, "read_p99_us")] {
            let (v, blocks, n, beyond) = seg.block_q(q, false);
            sheet.put(
                &format!("{name}.{tag}"),
                v,
                "us",
                format!("median of {blocks} blocks, n>={n} and >={beyond} beyond q{q} each, {rate} req/s offered"),
            );
        }
        if tag == "high" {
            sheet.put_q("scan_p99_us.high", &seg.dist(is_scan), 0.99, 1.0, "us");
        }
        let lags = Dist::new(seg.lags_us.clone());
        let (n, ok) = seg.in_spec();
        println!(
            "fleet {tag}: generator lag p50 {:.1} us p99 {:.1} us (n={}), real-time generator {}, failed {}, {} of {n} reads outside +-{TOLERANCE_C} C",
            lags.p50(),
            lags.p99(),
            lags.len(),
            REALTIME.load(std::sync::atomic::Ordering::Relaxed),
            seg.failed(),
            n - ok
        );
        tally(&seg);
    }
    let (mut pass, mut fail) = (None, None);
    let mut rate = p.ladder_start;
    for k in 0..p.ladder_rungs {
        let (ok, seg) = rung(
            d,
            crate::sub_seed(d.seed, 0x100 + k as u64),
            rate,
            p.rung_requests,
        );
        tally(&seg);
        if ok {
            pass = Some(rate);
            rate *= p.ladder_step;
        } else {
            fail = Some(rate);
            break;
        }
    }
    match (pass, fail) {
        (Some(mut lo), Some(mut hi)) => {
            for k in 0..p.bisect_steps {
                let mid = (lo * hi).sqrt();
                let (ok, seg) = rung(
                    d,
                    crate::sub_seed(d.seed, 0x200 + k as u64),
                    mid,
                    p.rung_requests,
                );
                tally(&seg);
                if ok {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            sheet.put(
                "max_rate_rps",
                lo,
                "req/s",
                format!("limit {LIMIT_US} us at p99; fails at {hi:.0} req/s"),
            );
        }
        (None, _) => sheet.put(
            "max_rate_rps",
            0.0,
            "req/s",
            format!(
                "no rung met the limit; the first is {} req/s",
                p.ladder_start
            ),
        ),
        (Some(lo), None) => sheet.put(
            "max_rate_rps",
            lo,
            "req/s",
            "every rung met the limit: a lower bound",
        ),
    }
    sheet.ops(attempted, failed);
    sheet.put(
        "fleet_in_spec_frac",
        in_spec as f64 / reads.max(1) as f64,
        "ratio",
        format!("{in_spec} of {reads} served reads within +-{TOLERANCE_C} C of the requested temperature"),
    );
}

/// Counter value from a `/health` answer (0 when absent).
fn counter(h: &HealthWire, name: &str) -> u64 {
    h.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

fn rejected(h: &HealthWire) -> u64 {
    h.counters
        .iter()
        .filter(|(n, _)| n.starts_with("svc.rejected."))
        .map(|(_, v)| v)
        .sum()
}

/// Per-read layer costs the reconciliation adds up, µs.
pub struct ReadLayers {
    pub e2e_untraced_p50: f64,
    pub e2e_traced_p50: f64,
    pub call_p50: f64,
    pub submit_p50: f64,
    pub codec_p50: f64,
    pub queue_hop_p50: f64,
}

/// The traced run: spans around `Client::call` on the served daemon, and
/// around `Fleet::submit`, `Fleet::health` and the v2 codec on an
/// in-process twin fleet driven with the same request sequence.
pub fn trace(d: &Daemon, sheet: &mut Sheet, spans: &mut Tracer) -> ReadLayers {
    let p = d.params;
    let seed = crate::sub_seed(d.seed, 0x10);
    let untraced = run_segment(d, seed, p.rate_low, p.low_requests, false);
    let h0 = d.health();
    let traced = run_segment(d, seed, p.rate_low, p.low_requests, true);
    let high = run_segment(
        d,
        crate::sub_seed(d.seed, 0x20),
        p.rate_high,
        p.high_requests,
        false,
    );
    let h1 = d.health();
    for seg in [&untraced, &traced, &high] {
        sheet.ops(seg.samples.len() as u64, seg.failed());
    }
    let call = {
        let t = traced.tracer.as_ref().expect("traced segment has spans");
        Dist::new(t.us("service.call"))
    };
    sheet.put_q("service.call_us.p50", &call, 0.5, 1.0, "us");
    sheet.put_q("service.call_us.p99", &call, 0.99, 1.0, "us");
    sheet.put_q(
        "gen.lag_us.p99",
        &Dist::new(untraced.lags_us.clone()),
        0.99,
        1.0,
        "us",
    );

    let d_served = counter(&h1, "svc.served") - counter(&h0, "svc.served");
    let d_reads = counter(&h1, "svc.coalesced_reads") - counter(&h0, "svc.coalesced_reads");
    let d_wakes = counter(&h1, "svc.coalesced_wakes") - counter(&h0, "svc.coalesced_wakes");
    sheet.put(
        "service.coalesced_frac",
        d_reads as f64 / d_served.max(1) as f64,
        "ratio",
        format!("{d_reads} coalesced of {d_served} served"),
    );
    sheet.put(
        "service.coalesce_width",
        if d_wakes == 0 {
            0.0
        } else {
            d_reads as f64 / d_wakes as f64
        },
        "dies",
        format!("{d_wakes} grouped wakes"),
    );
    sheet.put(
        "service.queue_peak",
        traced.queue_peak.max(high.queue_peak) as f64,
        "jobs",
        "deepest shard queue seen by /health probes",
    );
    sheet.put(
        "service.rejected",
        (rejected(&h1) - rejected(&h0)) as f64,
        "count",
        "",
    );
    sheet.put(
        "service.deadline_drops",
        (counter(&h1, "svc.deadline_drops") - counter(&h0, "svc.deadline_drops")) as f64,
        "count",
        "",
    );
    let e2e_traced_p50 = traced.block_q(0.5, false).0;
    if let Some(t) = traced.tracer {
        spans.absorb(t);
    }

    // The twin: same configuration and seed, the traced segment's reads in
    // due-time order, submitted back to back from one thread while the
    // other polls `/health`.
    let twin = Fleet::start(fleet_config(&p, d.seed));
    warm(&p, |req| twin.submit(req));
    let reads: Vec<Request> = schedules(&p, seed, p.rate_low, p.low_requests)
        .into_iter()
        .flatten()
        .filter(|it| is_read(it.op))
        .map(|it| it.op.request())
        .collect::<Vec<_>>();
    let epoch = Instant::now();
    let done = std::sync::atomic::AtomicBool::new(false);
    let (mut submit_t, health_t, responses) = std::thread::scope(|s| {
        let poller = s.spawn(|| {
            tighten_timer_slack();
            let mut t = Tracer::new(epoch);
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                let h = t.time("service.health", NO_PARENT, 0, || twin.health());
                std::hint::black_box(h);
                std::thread::sleep(Duration::from_micros(500));
            }
            t
        });
        let mut t = Tracer::new(epoch);
        let mut responses = Vec::with_capacity(reads.len());
        for (i, req) in reads.iter().enumerate() {
            let resp = t.time("service.submit", NO_PARENT, i as u64, || {
                twin.submit(req.clone())
            });
            responses.push(resp);
        }
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        (t, poller.join().expect("health poller"), responses)
    });
    let twin_failed = reads
        .iter()
        .zip(&responses)
        .filter(|(req, resp)| {
            let Request::Read { die, temp_c, .. } = **req else {
                unreachable!("reads only")
            };
            !check(
                Op::Read { die, temp: temp_c },
                p.shards,
                &Ok((*resp).clone()),
            )
            .served
        })
        .count();
    sheet.ops(reads.len() as u64, twin_failed as u64);
    for i in 0..reads.len() as u64 {
        let r = submit_t.time("service.queue_hop", NO_PARENT, i, || {
            twin.submit(Request::Ping { pad: 0 })
        });
        sheet.check(matches!(r, Response::Pong { .. }), || {
            format!("ping answered {r:?}")
        });
    }
    let scans = 200u64;
    let mut rng = Pcg64::seed_from_u64(crate::sub_seed(d.seed, 0x30));
    let mut scans_failed = 0;
    for i in 0..scans {
        let shard = i % p.shards;
        let op = Op::Scan {
            die0: shard,
            count: stripe_len(&p, shard).min(MAX_BATCH),
            temp: rng.gen_range(TEMP_C.0..TEMP_C.1),
        };
        let r = submit_t.time("service.scan_submit", NO_PARENT, i, || {
            twin.submit(op.request())
        });
        scans_failed += u64::from(!check(op, p.shards, &Ok(r)).served);
    }
    sheet.ops(scans, scans_failed);
    twin.shutdown();

    // The v2 codec on the same reads and the twin's answers to them.
    let mut buf = Vec::new();
    for (i, (req, resp)) in reads.iter().zip(&responses).enumerate() {
        submit_t.time("service.codec", NO_PARENT, i as u64, || {
            buf.clear();
            wire::encode_request(req, &mut buf);
            let back = wire::decode_request(&buf).expect("decode own request");
            buf.clear();
            wire::encode_response(resp, &mut buf);
            let answer = wire::decode_response(&buf).expect("decode own response");
            std::hint::black_box((back, answer));
        });
    }

    let submit = Dist::new(submit_t.us("service.submit"));
    let hop = Dist::new(submit_t.us("service.queue_hop"));
    let codec = Dist::new(submit_t.us("service.codec"));
    let health = Dist::new(health_t.us("service.health"));
    sheet.put_q("service.submit_us.p50", &submit, 0.5, 1.0, "us");
    sheet.put_q("service.submit_us.p99", &submit, 0.99, 1.0, "us");
    sheet.put_q("service.queue_hop_us.p50", &hop, 0.5, 1.0, "us");
    sheet.put_q("service.queue_hop_us.p99", &hop, 0.99, 1.0, "us");
    sheet.put_q("service.codec_ns.p50", &codec, 0.5, 1e3, "ns");
    sheet.put_q(
        "service.scan_submit_us.p50",
        &Dist::new(submit_t.us("service.scan_submit")),
        0.5,
        1.0,
        "us",
    );
    sheet.put_q("service.health_us.p50", &health, 0.5, 1.0, "us");
    sheet.put_q("service.health_us.p99", &health, 0.99, 1.0, "us");
    sheet.put(
        "service.socket_us.p50",
        call.p50() - submit.p50() - codec.p50(),
        "us",
        "derived: call - submit - codec",
    );
    spans.absorb(submit_t);
    spans.absorb(health_t);

    ReadLayers {
        e2e_untraced_p50: untraced.block_q(0.5, false).0,
        e2e_traced_p50,
        call_p50: call.p50(),
        submit_p50: submit.p50(),
        codec_p50: codec.p50(),
        queue_hop_p50: hop.p50(),
    }
}

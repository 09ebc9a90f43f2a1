//! One shard of the fleet: a bounded job queue plus the worker that owns a
//! stripe of dies.
//!
//! The worker keeps a lazily-built, calibrated [`PtSensor`] per owned die
//! (prototype clone + `die_rng(base_seed, die)` — the same deterministic
//! per-die seeding the Monte-Carlo driver uses, so a die reads the same
//! values no matter which fleet boot serves it). Every conversion runs
//! inside `catch_unwind`: a panicking die answers with a typed
//! [`Rejection::WorkerPanicked`](crate::protocol::Rejection) and has its
//! slot rebuilt, while the shard keeps serving its other dies. Chaos flags
//! (degrade/stall/panic) live in the *shared* state, outside the worker,
//! precisely so they survive a worker restart — a degraded die must stay
//! degraded across a crash, or the chaos campaign could never observe
//! "recovered but still degraded" serving.

use crate::protocol::{BatchItem, InjectKind, Quality, Rejection, Request, Response};
use ptsim_core::pipeline::read_group_with;
use ptsim_core::{HealthStatus, PtSensor, Reading, Scratch, SensorError, SensorInputs, SensorSpec};
use ptsim_device::process::Technology;
use ptsim_device::units::Celsius;
use ptsim_mc::die::{DieSample, DieSite};
use ptsim_mc::driver::die_rng;
use ptsim_mc::model::{DieSampler, VariationModel};
use ptsim_obs::{CounterId, GaugeId, HistogramId, Registry};
use ptsim_rng::Pcg64;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Recovers the guarded value whether or not the mutex is poisoned. Shard
/// state must stay reachable after a worker panic — that is the whole
/// point of the supervision tree — so poisoning is never fatal here.
pub(crate) fn recover<T>(r: Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// Service metric ids over one [`Registry`]. Every holder (each shard, and
/// the fleet's connection-level registry) registers the same names, so
/// [`Registry::merge`] aggregates them for `/health`.
#[derive(Debug)]
pub struct SvcMetrics {
    /// The backing registry.
    pub reg: Registry,
    /// Requests admitted into a queue.
    pub requests: CounterId,
    /// Requests answered with a reading/outcome.
    pub served: CounterId,
    /// Served readings carrying `quality == "degraded"`.
    pub degraded_served: CounterId,
    /// Typed `timeout` rejections.
    pub rej_timeout: CounterId,
    /// Typed `overloaded` rejections (admission-control sheds).
    pub rej_overloaded: CounterId,
    /// Typed `shard_down` rejections.
    pub rej_shard_down: CounterId,
    /// Typed `bad_request` rejections (malformed frames, bound violations).
    pub rej_bad_request: CounterId,
    /// Typed `worker_panicked` rejections (isolated conversion panics).
    pub rej_worker_panicked: CounterId,
    /// Typed `conversion_failed` rejections (sensor-level errors).
    pub rej_conversion_failed: CounterId,
    /// Jobs dropped at dequeue because their deadline had already passed
    /// (the client was independently answered with `timeout`).
    pub deadline_drops: CounterId,
    /// Worker-thread panics that escaped a request (supervisor-visible).
    pub worker_panics: CounterId,
    /// Worker restarts performed by the supervisor.
    pub restarts: CounterId,
    /// Accepted connections.
    pub conns: CounterId,
    /// Frames refused as malformed/truncated.
    pub bad_frames: CounterId,
    /// Frames refused for an oversize length prefix.
    pub oversize_frames: CounterId,
    /// Connections dropped because the client read too slowly.
    pub slow_client_drops: CounterId,
    /// Connections reaped for idleness.
    pub idle_reaps: CounterId,
    /// Connections that negotiated the v2 binary protocol.
    pub wire_v2_conns: CounterId,
    /// Frames served over the v2 binary protocol.
    pub wire_v2_frames: CounterId,
    /// High-water mark of any shard queue.
    pub queue_peak: GaugeId,
    /// Queue-to-reply latency of served requests, µs.
    pub latency_us: HistogramId,
    /// How many live reads a *grouped* worker wake drained into one
    /// lane-grouped conversion. Solo wakes are not recorded, so a sample
    /// here is proof the scheduler is grouping; compare the sample count
    /// against `svc.served` for the grouped fraction.
    pub coalesce_width: HistogramId,
}

impl SvcMetrics {
    /// Registers the full service metric set on a fresh registry.
    #[must_use]
    pub fn new() -> Self {
        let mut reg = Registry::new();
        let requests = reg.counter("svc.requests");
        let served = reg.counter("svc.served");
        let degraded_served = reg.counter("svc.degraded_served");
        let rej_timeout = reg.counter("svc.rejected.timeout");
        let rej_overloaded = reg.counter("svc.rejected.overloaded");
        let rej_shard_down = reg.counter("svc.rejected.shard_down");
        let rej_bad_request = reg.counter("svc.rejected.bad_request");
        let rej_worker_panicked = reg.counter("svc.rejected.worker_panicked");
        let rej_conversion_failed = reg.counter("svc.rejected.conversion_failed");
        let deadline_drops = reg.counter("svc.deadline_drops");
        let worker_panics = reg.counter("svc.worker_panics");
        let restarts = reg.counter("svc.restarts");
        let conns = reg.counter("svc.connections");
        let bad_frames = reg.counter("svc.bad_frames");
        let oversize_frames = reg.counter("svc.oversize_frames");
        let slow_client_drops = reg.counter("svc.slow_client_drops");
        let idle_reaps = reg.counter("svc.idle_reaps");
        let wire_v2_conns = reg.counter("svc.wire_v2_conns");
        let wire_v2_frames = reg.counter("svc.wire_v2_frames");
        let queue_peak = reg.gauge("svc.queue_peak");
        let latency_us = reg.histogram("svc.latency_us", 0.0, 1.0e6, 48);
        // Unit-width bins over 0..=64 so every integer group width lands
        // exactly in bin `width` (no clamping at the default cap of 64).
        let coalesce_width = reg.histogram("svc.coalesce_width", 0.0, 65.0, 65);
        SvcMetrics {
            reg,
            requests,
            served,
            degraded_served,
            rej_timeout,
            rej_overloaded,
            rej_shard_down,
            rej_bad_request,
            rej_worker_panicked,
            rej_conversion_failed,
            deadline_drops,
            worker_panics,
            restarts,
            conns,
            bad_frames,
            oversize_frames,
            slow_client_drops,
            idle_reaps,
            wire_v2_conns,
            wire_v2_frames,
            queue_peak,
            latency_us,
            coalesce_width,
        }
    }
}

impl Default for SvcMetrics {
    fn default() -> Self {
        Self::new()
    }
}

/// Supervision state of a shard worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// The worker is serving.
    Up,
    /// The worker crashed and the supervisor is backing off before a
    /// restart; queued work waits.
    Restarting,
    /// The restart budget is exhausted; the supervisor drains the queue
    /// with typed `shard_down` rejections.
    Dead,
}

impl ShardState {
    /// Wire name (`"up"` / `"restarting"` / `"dead"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ShardState::Up => "up",
            ShardState::Restarting => "restarting",
            ShardState::Dead => "dead",
        }
    }
}

/// Mutable supervision record of one shard.
#[derive(Debug, Clone)]
pub struct ShardStatus {
    /// Current state.
    pub state: ShardState,
    /// Restarts so far.
    pub restarts: u64,
    /// Message of the most recent escaped panic, if any.
    pub last_panic: Option<String>,
}

/// Chaos flags of one die. Kept outside the worker so they survive
/// restarts.
#[derive(Debug, Clone, Copy, Default)]
pub struct DieFlags {
    /// Serve degraded temperature-only readings (dead PSRO bank).
    pub degraded: bool,
    /// Panic inside the next conversion (one-shot).
    pub panic_conversion: bool,
    /// Panic *outside* the per-request boundary on the next job (one-shot)
    /// — exercises the supervisor.
    pub panic_worker: bool,
    /// Stall this many ms before serving the next job (one-shot).
    pub stall_ms: u64,
}

/// One queued request with its reply channel and deadline.
#[derive(Debug)]
pub struct Job {
    /// The request (only die-addressed ops are queued).
    pub req: Request,
    /// Shedding priority (higher survives overload longer).
    pub priority: u8,
    /// Absolute deadline; the fleet stops waiting at this instant and the
    /// worker discards the job if it is only dequeued afterwards.
    pub deadline: Instant,
    /// When the job was admitted (for the latency histogram).
    pub enqueued: Instant,
    /// Where the answer goes. A send failure means the client stopped
    /// waiting; it is never an error.
    pub reply: mpsc::Sender<Response>,
}

/// Static configuration of one shard.
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// This shard's index.
    pub shard_id: u64,
    /// Total shards in the fleet (die `d` belongs to shard
    /// `d % n_shards`).
    pub n_shards: u64,
    /// Total dies in the fleet.
    pub n_dies: u64,
    /// Bounded queue depth; admission control sheds beyond it.
    pub queue_depth: usize,
    /// Base seed of the fleet's deterministic per-die streams.
    pub base_seed: u64,
    /// How many queued single-die reads one worker wake may drain into a
    /// lane-grouped conversion (1 disables coalescing). Purely a
    /// scheduling knob: dies are independently calibrated with independent
    /// RNG streams, so a coalesced read is bit-identical to the same read
    /// served alone.
    pub coalesce_max: usize,
}

impl ShardConfig {
    /// Dies this shard owns.
    #[must_use]
    pub fn owned_dies(&self) -> u64 {
        if self.n_dies == 0 {
            return 0;
        }
        let full = self.n_dies / self.n_shards;
        let extra = u64::from(self.n_dies % self.n_shards > self.shard_id);
        full + extra
    }

    fn local_index(&self, die: u64) -> usize {
        (die / self.n_shards) as usize
    }
}

/// State shared between a shard's worker, its supervisor, and the fleet
/// front-end.
#[derive(Debug)]
pub struct ShardShared {
    /// Static configuration.
    pub cfg: ShardConfig,
    /// The bounded job queue.
    pub queue: Mutex<VecDeque<Job>>,
    /// Signals the worker when work arrives or shutdown begins.
    pub cv: Condvar,
    /// Supervision record.
    pub status: Mutex<ShardStatus>,
    /// Per-owned-die chaos flags, indexed by local die index.
    pub flags: Mutex<Vec<DieFlags>>,
    /// This shard's metric registry (merged fleet-wide for `/health`).
    pub metrics: Mutex<SvcMetrics>,
    /// Set once at fleet shutdown.
    pub shutdown: AtomicBool,
}

impl ShardShared {
    /// Fresh shared state for one shard.
    #[must_use]
    pub fn new(cfg: ShardConfig) -> Self {
        let owned = cfg.owned_dies() as usize;
        ShardShared {
            cfg,
            queue: Mutex::new(VecDeque::with_capacity(cfg.queue_depth)),
            cv: Condvar::new(),
            status: Mutex::new(ShardStatus {
                state: ShardState::Up,
                restarts: 0,
                last_panic: None,
            }),
            flags: Mutex::new(vec![DieFlags::default(); owned]),
            metrics: Mutex::new(SvcMetrics::new()),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Bumps one counter of this shard's registry.
    pub(crate) fn count(&self, pick: impl Fn(&SvcMetrics) -> CounterId) {
        let mut m = recover(self.metrics.lock());
        let id = pick(&m);
        m.reg.inc(id);
    }
}

/// One die's live serving state inside a worker.
struct DieSlot {
    sensor: PtSensor,
    die: DieSample,
    rng: Pcg64,
    calib_quality: Quality,
}

/// Per-worker context, rebuilt from shared state after every restart.
/// Construction is deliberately lazy per die: a 4096-die fleet boots in
/// milliseconds and pays each die's calibration on first touch.
pub struct WorkerCtx {
    prototype: PtSensor,
    sampler: DieSampler,
    boot_temp: Celsius,
    slots: Vec<Option<DieSlot>>,
    /// Heap buffers of the conversion pipeline, reused across every read
    /// and group so a warm worker converts without touching the
    /// allocator.
    scratch: Scratch,
    /// Result buffer of [`read_group_with`], reused alongside `scratch`.
    group_results: Vec<Result<Reading, SensorError>>,
}

impl WorkerCtx {
    /// Builds the worker's prototype sensor and die sampler.
    ///
    /// # Panics
    ///
    /// Panics if the default 65 nm sensor cannot be constructed — a build
    /// configuration error the supervisor surfaces as a dead shard, not a
    /// recoverable request failure.
    #[must_use]
    pub fn new(cfg: &ShardConfig) -> Self {
        let spec = SensorSpec::default_65nm();
        let boot_temp = spec.calib_temp;
        let prototype = PtSensor::new(Technology::n65(), spec)
            .expect("default 65nm sensor spec must construct");
        let model = VariationModel::new(&Technology::n65());
        WorkerCtx {
            prototype,
            sampler: model.sampler(),
            boot_temp,
            slots: (0..cfg.owned_dies()).map(|_| None).collect(),
            scratch: Scratch::new(),
            group_results: Vec::new(),
        }
    }

    /// The calibrated slot for `die`, built on first touch. A build
    /// re-applies the die's persistent degrade flag, so a degraded die stays
    /// degraded across a rebuild.
    fn slot(&mut self, shared: &ShardShared, die: u64) -> Result<&mut DieSlot, SensorError> {
        let cfg = &shared.cfg;
        let idx = cfg.local_index(die);
        if self.slots[idx].is_none() {
            let mut rng = die_rng(cfg.base_seed, die);
            let sample = self.sampler.sample_die_with_id(&mut rng, die);
            let mut sensor = self.prototype.clone();
            let boot = SensorInputs::new(&sample, DieSite::CENTER, self.boot_temp);
            let outcome = sensor.calibrate(&boot, &mut rng)?;
            if recover(shared.flags.lock())[idx].degraded {
                sensor.inject_faults(degrade_plan());
            }
            self.slots[idx] = Some(DieSlot {
                sensor,
                die: sample,
                rng,
                calib_quality: quality_of(outcome.health.status()),
            });
        }
        Ok(self.slots[idx].as_mut().expect("slot just built"))
    }
}

/// The fault plan behind [`InjectKind::DegradeDie`]: a bank-wide dead
/// PSRO-N stage. The sensor detects it, freezes the threshold-shift
/// outputs at their calibration values, and keeps serving temperature with
/// an explicit degraded flag — exactly the graceful-degradation contract.
fn degrade_plan() -> ptsim_faults::FaultPlan {
    ptsim_faults::FaultPlan::single(ptsim_faults::Fault::DeadRoStage {
        channel: ptsim_faults::Channel::PsroN,
        replica: ptsim_faults::ReplicaSel::All,
    })
}

fn quality_of(status: HealthStatus) -> Quality {
    match status {
        HealthStatus::Nominal => Quality::Nominal,
        HealthStatus::Recovered => Quality::Recovered,
        HealthStatus::Degraded => Quality::Degraded,
    }
}

/// The worker body: dequeues jobs until shutdown. The supervisor wraps
/// each invocation in `catch_unwind`; `ctx` lives *outside* that boundary
/// so an escaped panic discards it (`None`) and the next incarnation
/// rebuilds every touched die from the deterministic seeds.
pub fn worker_loop(shared: &ShardShared, ctx: &mut Option<WorkerCtx>) {
    let mut group: Vec<Job> = Vec::new();
    loop {
        group.clear();
        {
            let mut q = recover(shared.queue.lock());
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(j) = q.pop_front() {
                    group.push(j);
                    break;
                }
                let (guard, _) = recover(shared.cv.wait_timeout(q, Duration::from_millis(25)));
                q = guard;
            }
            // Opportunistic coalescing: when the wake lands on a single-die
            // read, drain the longest queue *prefix* of further reads to
            // distinct dies (up to `coalesce_max`) into one lane-grouped
            // conversion. Stopping at the first non-read or repeated die
            // preserves total queue order — in particular two reads of the
            // same die still advance that die's RNG stream in admission
            // order, which is what keeps a coalesced read bit-identical to
            // the same read served alone.
            if matches!(group[0].req, Request::Read { .. }) {
                while group.len() < shared.cfg.coalesce_max.max(1) {
                    let Some(next) = q.front() else { break };
                    let Request::Read { die, .. } = next.req else {
                        break;
                    };
                    if group
                        .iter()
                        .any(|j| matches!(j.req, Request::Read { die: d, .. } if d == die))
                    {
                        break;
                    }
                    group.push(q.pop_front().expect("front() was Some under the lock"));
                }
            }
        }
        let worker = ctx.get_or_insert_with(|| WorkerCtx::new(&shared.cfg));
        serve(shared, worker, &mut group);
    }
}

/// Whether any job of `group` targets a die with a one-shot chaos flag
/// (stall or panic) armed.
fn armed(shared: &ShardShared, group: &[Job]) -> bool {
    let all = recover(shared.flags.lock());
    group.iter().filter_map(|j| die_of(&j.req)).any(|die| {
        let f = &all[shared.cfg.local_index(die)];
        f.panic_conversion || f.panic_worker || f.stall_ms > 0
    })
}

/// Serves one wake: a single job of any kind, or a coalesced group of
/// reads to mutually distinct dies (by construction in [`worker_loop`]),
/// and drains `group`.
///
/// * One-shot chaos flags arm exactly one job: a group holding a die with
///   an armed stall or panic is served one job at a time, in queue order.
///   A die-addressed job's die takes its flags (a `ping` takes none): a
///   stall sleeps, an injected conversion panic rejects the job with
///   `worker_panicked`, and an injected worker panic escapes this function
///   by design (it exercises the supervisor).
/// * Each job is deadline-checked at dequeue and silently discarded past
///   its deadline (the fleet already answered the client with a typed
///   timeout), with a `deadline_drops` count.
/// * Reads and `batch_read`s convert through [`convert`]; `calibrate`,
///   `inject` and `ping` are control ops ([`control`]).
/// * Every reply is counted by [`tally`] under one metrics lock, and a
///   coalesced group records its width; replies are sent after the lock
///   is released.
fn serve(shared: &ShardShared, worker: &mut WorkerCtx, group: &mut Vec<Job>) {
    if group.len() > 1 && armed(shared, group) {
        for job in group.drain(..) {
            serve(shared, worker, &mut vec![job]);
        }
        return;
    }
    let cfg = &shared.cfg;
    let flags = die_of(&group[0].req).map_or_else(DieFlags::default, |die| {
        let mut all = recover(shared.flags.lock());
        let f = &mut all[cfg.local_index(die)];
        let taken = *f;
        // One-shot flags arm exactly one job.
        f.panic_conversion = false;
        f.panic_worker = false;
        f.stall_ms = 0;
        taken
    });
    if flags.stall_ms > 0 {
        std::thread::sleep(Duration::from_millis(flags.stall_ms));
    }
    if flags.panic_worker {
        shared.count(|m| m.worker_panics);
        panic!("injected worker panic (shard {})", cfg.shard_id);
    }
    let coalesced = group.len() > 1;
    let now = Instant::now();
    group.retain(|job| {
        let live = now < job.deadline;
        if !live {
            shared.count(|m| m.deadline_drops);
        }
        live
    });
    if group.is_empty() {
        return;
    }
    let responses = match group[0].req {
        Request::Read { .. } | Request::BatchRead { .. } => {
            convert(shared, worker, group, flags.panic_conversion)
        }
        _ => vec![control(shared, worker, &group[0].req)],
    };
    {
        let mut m = recover(shared.metrics.lock());
        if coalesced {
            let w = m.coalesce_width;
            m.reg.observe(w, group.len() as f64);
        }
        for (job, response) in group.iter().zip(&responses) {
            tally(&mut m, response, job.enqueued);
        }
    }
    // Replies go out after the metrics lock is released: a client woken by
    // its reply takes that lock again to admit its next request.
    for (job, response) in group.drain(..).zip(responses) {
        // A failed send means the client already gave up (typed timeout);
        // never an error here.
        let _ = job.reply.send(response);
    }
}

/// Counts one reply. This is the one place served, degraded, rejected and
/// latency bookkeeping happens: every served read and every batch carries
/// its own queue-to-reply latency sample.
fn tally(m: &mut SvcMetrics, response: &Response, enqueued: Instant) {
    match response {
        Response::Reading { quality, .. } => count_served(m, *quality),
        Response::Batch { items } => {
            for item in items {
                match item {
                    BatchItem::Reading { quality, .. } => count_served(m, *quality),
                    BatchItem::Rejected { rejection, .. } => count_rejected(m, *rejection),
                }
            }
        }
        Response::Rejected { rejection, .. } => return count_rejected(m, *rejection),
        _ => {
            let id = m.served;
            return m.reg.inc(id);
        }
    }
    let lat = m.latency_us;
    m.reg.observe(lat, enqueued.elapsed().as_secs_f64() * 1e6);
}

fn count_served(m: &mut SvcMetrics, quality: Quality) {
    let id = m.served;
    m.reg.inc(id);
    if quality == Quality::Degraded {
        let id = m.degraded_served;
        m.reg.inc(id);
    }
}

fn count_rejected(m: &mut SvcMetrics, rejection: Rejection) {
    let id = match rejection {
        Rejection::Timeout => m.rej_timeout,
        Rejection::Overloaded => m.rej_overloaded,
        Rejection::ShardDown => m.rej_shard_down,
        Rejection::BadRequest => m.rej_bad_request,
        Rejection::WorkerPanicked => m.rej_worker_panicked,
        Rejection::ConversionFailed => m.rej_conversion_failed,
    };
    m.reg.inc(id);
}

/// Converts a wake's reads (one die each) or its one `batch_read` (the
/// stripe) and answers one response per job: a reading or rejection per
/// read, one [`Response::Batch`] per batch. Every die converts in one
/// [`convert_dies`] pass inside `catch_unwind`; a panic (an armed
/// `panic_conversion` included) rebuilds every die the wake touched from
/// the deterministic seeds and rejects each job with `worker_panicked`.
fn convert(
    shared: &ShardShared,
    worker: &mut WorkerCtx,
    group: &[Job],
    panic_armed: bool,
) -> Vec<Response> {
    let cfg = &shared.cfg;
    let mut dies: Vec<(u64, f64)> = Vec::with_capacity(group.len());
    let batch = if let Request::BatchRead {
        die0,
        count,
        temp_c,
        ..
    } = group[0].req
    {
        let Some(stripe) = stripe(cfg, die0, count) else {
            return vec![Response::rejected(
                Rejection::BadRequest,
                format!("batch of {count} dies striding from die {die0} leaves this shard"),
            )];
        };
        dies.extend(stripe.map(|die| (die, temp_c)));
        Some(die0)
    } else {
        for job in group {
            let Request::Read { die, temp_c, .. } = job.req else {
                unreachable!("a coalesced group holds only reads");
            };
            dies.push((die, temp_c));
        }
        None
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        // An armed panic fires before any slot is touched, whether or not
        // the group's dies would build.
        let anchor = batch.unwrap_or(dies[0].0);
        assert!(!panic_armed, "injected conversion panic (die {anchor})");
        convert_dies(shared, worker, &dies)
    }));
    let Ok(items) = outcome else {
        for &(die, _) in &dies {
            worker.slots[cfg.local_index(die)] = None;
        }
        return match batch {
            Some(die0) => vec![Response::rejected(
                Rejection::WorkerPanicked,
                format!("batch drain anchored at die {die0} panicked; stripe state rebuilt"),
            )],
            None => dies
                .iter()
                .map(|(die, _)| {
                    Response::rejected(
                        Rejection::WorkerPanicked,
                        format!("conversion on die {die} panicked; die state rebuilt"),
                    )
                })
                .collect(),
        };
    };
    match batch {
        Some(_) => vec![Response::Batch { items }],
        None => items.into_iter().map(into_response).collect(),
    }
}

/// Builds (or reuses) the slot of every `(die, temp_c)` and converts them
/// all in one lane-grouped [`read_group_with`] pass over the worker's
/// persistent [`Scratch`]: one item per die, in `dies` order. A die that
/// fails to build or convert answers with its own typed rejection and
/// degrades nothing else. Grouping cannot perturb any value: dies are
/// independently calibrated, gating draws stay on each die's own stream,
/// and the Newton solves are RNG-free, so cross-die conversion order is
/// immaterial.
fn convert_dies(
    shared: &ShardShared,
    worker: &mut WorkerCtx,
    dies: &[(u64, f64)],
) -> Vec<BatchItem> {
    let cfg = &shared.cfg;
    let mut items: Vec<Option<BatchItem>> = dies
        .iter()
        .map(|&(die, _)| {
            worker
                .slot(shared, die)
                .err()
                .map(|e| rejected_item(die, &e))
        })
        .collect();
    // Gather the live slots in ascending local-index order — the only
    // order a single pass of disjoint `&mut` borrows can yield — and
    // remember the permutation back to `dies` order.
    let mut order: Vec<usize> = (0..dies.len()).filter(|&j| items[j].is_none()).collect();
    order.sort_unstable_by_key(|&j| cfg.local_index(dies[j].0));
    let WorkerCtx {
        slots,
        scratch,
        group_results,
        ..
    } = worker;
    let mut sensors: Vec<&PtSensor> = Vec::with_capacity(order.len());
    let mut inputs: Vec<SensorInputs<'_>> = Vec::with_capacity(order.len());
    let mut rngs: Vec<&mut Pcg64> = Vec::with_capacity(order.len());
    let (mut rest, mut base) = (slots.as_mut_slice(), 0);
    for &j in &order {
        let (die, temp_c) = dies[j];
        let idx = cfg.local_index(die);
        let (_, tail) = std::mem::take(&mut rest).split_at_mut(idx - base);
        let (slot, tail) = tail.split_first_mut().expect("owned die");
        (rest, base) = (tail, idx + 1);
        let DieSlot {
            sensor,
            die: sample,
            rng,
            ..
        } = slot.as_mut().expect("slot built above");
        sensors.push(&*sensor);
        inputs.push(SensorInputs::new(
            &*sample,
            DieSite::CENTER,
            Celsius(temp_c),
        ));
        rngs.push(rng);
    }
    read_group_with(&sensors, &inputs, &mut rngs, scratch, group_results);
    for (&j, result) in order.iter().zip(group_results.drain(..)) {
        let die = dies[j].0;
        items[j] = Some(match result {
            Ok(reading) => BatchItem::Reading {
                die,
                temp_c: reading.temperature.0,
                d_vtn_mv: reading.d_vtn.millivolts(),
                d_vtp_mv: reading.d_vtp.millivolts(),
                energy_pj: reading.energy.total().picojoules(),
                quality: quality_of(reading.health.status()),
            },
            Err(e) => rejected_item(die, &e),
        });
    }
    items
        .into_iter()
        .map(|item| item.expect("every die has an outcome"))
        .collect()
}

fn rejected_item(die: u64, e: &SensorError) -> BatchItem {
    BatchItem::Rejected {
        die,
        rejection: Rejection::ConversionFailed,
        detail: e.to_string(),
    }
}

/// The reply to a single read from its converted item.
fn into_response(item: BatchItem) -> Response {
    match item {
        BatchItem::Reading {
            die,
            temp_c,
            d_vtn_mv,
            d_vtp_mv,
            energy_pj,
            quality,
        } => Response::Reading {
            die,
            temp_c,
            d_vtn_mv,
            d_vtp_mv,
            energy_pj,
            quality,
        },
        BatchItem::Rejected {
            rejection, detail, ..
        } => Response::Rejected { rejection, detail },
    }
}

/// Serves a control op: recalibration, chaos injection, or ping.
fn control(shared: &ShardShared, worker: &mut WorkerCtx, req: &Request) -> Response {
    match *req {
        Request::Calibrate { die, .. } => {
            // Recalibration rebuilds the slot from scratch (fresh sample of
            // the same deterministic die, fresh calibration).
            worker.slots[shared.cfg.local_index(die)] = None;
            match worker.slot(shared, die) {
                Ok(slot) => Response::Calibrated {
                    die,
                    quality: slot.calib_quality,
                },
                Err(e) => Response::rejected(Rejection::ConversionFailed, e.to_string()),
            }
        }
        Request::Inject { die, kind } => {
            let idx = shared.cfg.local_index(die);
            let mut all = recover(shared.flags.lock());
            let (f, slot) = (&mut all[idx], &mut worker.slots[idx]);
            match kind {
                InjectKind::DegradeDie => {
                    f.degraded = true;
                    if let Some(slot) = slot {
                        slot.sensor.inject_faults(degrade_plan());
                    }
                }
                InjectKind::HealDie => {
                    f.degraded = false;
                    if let Some(slot) = slot {
                        slot.sensor.clear_faults();
                    }
                }
                InjectKind::PanicConversion => f.panic_conversion = true,
                InjectKind::PanicWorker => f.panic_worker = true,
                InjectKind::StallMs(ms) => f.stall_ms = ms,
            }
            Response::Injected { die }
        }
        Request::Ping { pad } => Response::Pong {
            pad: "x".repeat(pad as usize),
        },
        _ => Response::rejected(Rejection::BadRequest, "not a shard-addressed op"),
    }
}

/// The die a queued request targets (a batch's anchor die); `None` for an
/// op that addresses no die (`ping`).
fn die_of(req: &Request) -> Option<u64> {
    match req {
        Request::Read { die, .. }
        | Request::Calibrate { die, .. }
        | Request::Inject { die, .. } => Some(*die),
        Request::BatchRead { die0, .. } => Some(*die0),
        _ => None,
    }
}

/// The stripe a `batch_read` anchored at `die0` addresses: the `count`
/// lowest-indexed dies ≥ `die0` owned by `die0`'s shard (stride =
/// `n_shards`, so their local indices are consecutive). `None` when the
/// request is empty or runs off the fleet — the fleet validates this
/// before queueing, but a worker never trusts a job it did not admit.
fn stripe(cfg: &ShardConfig, die0: u64, count: u64) -> Option<impl Iterator<Item = u64>> {
    let stride = cfg.n_shards;
    let last = count
        .checked_sub(1)?
        .checked_mul(stride)?
        .checked_add(die0)?;
    (last < cfg.n_dies).then(|| (0..count).map(move |k| die0 + k * stride))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(shard_id: u64) -> ShardConfig {
        ShardConfig {
            shard_id,
            n_shards: 4,
            n_dies: 10,
            queue_depth: 8,
            base_seed: 7,
            coalesce_max: 8,
        }
    }

    #[test]
    fn die_striping_covers_the_fleet_exactly_once() {
        let owned: u64 = (0..4).map(|s| cfg(s).owned_dies()).sum();
        assert_eq!(owned, 10);
        // Local indices are dense per shard.
        assert_eq!(cfg(2).local_index(2), 0);
        assert_eq!(cfg(2).local_index(6), 1);
    }

    #[test]
    fn metric_names_merge_across_registries() {
        let mut a = SvcMetrics::new();
        let b = SvcMetrics::new();
        a.reg.inc(a.served);
        a.reg.merge(&b.reg);
        assert_eq!(a.reg.counter_value("svc.served"), Some(1));
    }

    /// A one-shard fleet of `n_dies` seeded with `base_seed`, and a fresh
    /// worker for it.
    fn one_shard(n_dies: u64, base_seed: u64) -> (ShardShared, WorkerCtx) {
        let cfg = ShardConfig {
            shard_id: 0,
            n_shards: 1,
            n_dies,
            queue_depth: 8,
            base_seed,
            coalesce_max: 8,
        };
        (ShardShared::new(cfg), WorkerCtx::new(&cfg))
    }

    fn job(req: Request, deadline: Instant) -> (Job, mpsc::Receiver<Response>) {
        let (reply, rx) = mpsc::channel();
        let job = Job {
            req,
            priority: 1,
            deadline,
            enqueued: Instant::now(),
            reply,
        };
        (job, rx)
    }

    fn read(die: u64) -> Request {
        Request::Read {
            die,
            temp_c: 60.0,
            priority: 1,
            deadline_ms: 60_000,
        }
    }

    fn batch(die0: u64, count: u64) -> Request {
        Request::BatchRead {
            die0,
            count,
            temp_c: 60.0,
            priority: 1,
            deadline_ms: 60_000,
        }
    }

    fn later() -> Instant {
        Instant::now() + Duration::from_secs(60)
    }

    /// Serves `reqs` as one wake and returns each job's reply.
    fn serve_wake(shared: &ShardShared, worker: &mut WorkerCtx, reqs: &[Request]) -> Vec<Response> {
        let (mut group, rxs): (Vec<Job>, Vec<_>) =
            reqs.iter().map(|r| job(r.clone(), later())).unzip();
        serve(shared, worker, &mut group);
        rxs.iter()
            .map(|rx| rx.try_recv().expect("every job answered"))
            .collect()
    }

    fn counter(shared: &ShardShared, name: &str) -> u64 {
        recover(shared.metrics.lock())
            .reg
            .counter_value(name)
            .expect("registered counter")
    }

    /// Gives the worker's prototype a dead TSRO on every replica, so every
    /// slot build fails the way a die failing calibration would. No die of
    /// the analytic model has been seen to fail calibration (a scan of
    /// 32.5M `(base_seed, die)` pairs over seven seeds found none).
    fn break_every_slot_build(worker: &mut WorkerCtx) {
        worker
            .prototype
            .inject_faults(ptsim_faults::FaultPlan::single(
                ptsim_faults::Fault::DeadRoStage {
                    channel: ptsim_faults::Channel::Tsro,
                    replica: ptsim_faults::ReplicaSel::All,
                },
            ));
    }

    fn is_worker_panicked(r: &Response) -> bool {
        matches!(
            r,
            Response::Rejected {
                rejection: Rejection::WorkerPanicked,
                ..
            }
        )
    }

    #[test]
    fn a_failed_slot_build_is_counted_on_a_solo_read() {
        let (shared, mut worker) = one_shard(4, 7);
        break_every_slot_build(&mut worker);
        let replies = serve_wake(&shared, &mut worker, &[read(2)]);
        assert!(
            matches!(
                replies[0],
                Response::Rejected {
                    rejection: Rejection::ConversionFailed,
                    ..
                }
            ),
            "{replies:?}"
        );
        assert!(worker.slots[2].is_none());
        assert_eq!(counter(&shared, "svc.rejected.conversion_failed"), 1);
        assert_eq!(counter(&shared, "svc.served"), 0);
    }

    #[test]
    fn an_armed_panic_fires_even_when_no_die_builds() {
        let (shared, mut worker) = one_shard(4, 7);
        break_every_slot_build(&mut worker);
        recover(shared.flags.lock())[1].panic_conversion = true;
        let batch_reply = serve_wake(&shared, &mut worker, &[batch(1, 3)]);
        assert!(is_worker_panicked(&batch_reply[0]), "{batch_reply:?}");
        recover(shared.flags.lock())[2].panic_conversion = true;
        let read_reply = serve_wake(&shared, &mut worker, &[read(2)]);
        assert!(is_worker_panicked(&read_reply[0]), "{read_reply:?}");
        assert_eq!(counter(&shared, "svc.rejected.worker_panicked"), 2);
        assert_eq!(counter(&shared, "svc.rejected.conversion_failed"), 0);
        assert!(!recover(shared.flags.lock())
            .iter()
            .any(|f| f.panic_conversion));
    }

    #[test]
    fn a_ping_leaves_die_flags_armed() {
        let (shared, mut worker) = one_shard(4, 7);
        recover(shared.flags.lock())[0].panic_conversion = true;
        let pong = serve_wake(&shared, &mut worker, &[Request::Ping { pad: 0 }]);
        assert!(matches!(pong[0], Response::Pong { .. }), "{pong:?}");
        assert!(recover(shared.flags.lock())[0].panic_conversion);
        let reply = serve_wake(&shared, &mut worker, &[read(0)]);
        assert!(is_worker_panicked(&reply[0]), "{reply:?}");
    }

    #[test]
    fn a_panic_armed_on_one_die_of_a_coalesced_group_rejects_only_that_job() {
        let (shared, mut worker) = one_shard(4, 7);
        recover(shared.flags.lock())[1].panic_conversion = true;
        let replies = serve_wake(&shared, &mut worker, &[read(0), read(1), read(2)]);
        assert!(is_worker_panicked(&replies[1]), "{replies:?}");
        assert!(worker.slots[1].is_none(), "the panicked die is rebuilt");
        // The neighbors served exactly what a fresh worker serves them.
        let (fresh, mut fresh_worker) = one_shard(4, 7);
        let alone = serve_wake(&fresh, &mut fresh_worker, &[read(0), read(2)]);
        assert_eq!([&replies[0], &replies[2]], [&alone[0], &alone[1]]);
        assert_eq!(counter(&shared, "svc.served"), 2);
        assert_eq!(counter(&shared, "svc.rejected.worker_panicked"), 1);
        assert!(
            !recover(shared.flags.lock())[1].panic_conversion,
            "one-shot"
        );
        // An armed group is served job by job: no width sample.
        let m = recover(shared.metrics.lock()).reg.snapshot();
        assert_eq!(m.histogram("svc.coalesce_width").unwrap().total, 0);
        assert_eq!(m.histogram("svc.latency_us").unwrap().total, 2);
    }

    #[test]
    fn a_stripe_panic_rejects_the_batch_and_rebuilds_the_stripe() {
        let (shared, mut worker) = one_shard(6, 7);
        let first = serve_wake(&shared, &mut worker, &[batch(1, 4)]);
        let Response::Batch { items } = &first[0] else {
            panic!("batch served: {first:?}");
        };
        assert_eq!(items.len(), 4);
        recover(shared.flags.lock())[1].panic_conversion = true;
        let panicked = serve_wake(&shared, &mut worker, &[batch(1, 4)]);
        assert!(is_worker_panicked(&panicked[0]), "{panicked:?}");
        assert!(worker.slots[1..5].iter().all(Option::is_none));
        assert_eq!(counter(&shared, "svc.rejected.worker_panicked"), 1);
        // Rebuilt from the deterministic seeds, the stripe serves the same
        // readings as its very first batch.
        assert_eq!(serve_wake(&shared, &mut worker, &[batch(1, 4)]), first);
        assert_eq!(counter(&shared, "svc.served"), 8);
        let m = recover(shared.metrics.lock()).reg.snapshot();
        assert_eq!(m.histogram("svc.latency_us").unwrap().total, 2);
    }

    #[test]
    fn deadline_drops_are_counted_and_never_answered() {
        let (shared, mut worker) = one_shard(4, 7);
        let (late, late_rx) = job(read(0), Instant::now());
        let (live, live_rx) = job(read(1), later());
        let mut group = vec![late, live];
        serve(&shared, &mut worker, &mut group);
        assert!(group.is_empty());
        assert_eq!(
            late_rx.try_recv(),
            Err(mpsc::TryRecvError::Disconnected),
            "a dropped job is never answered"
        );
        assert!(matches!(
            live_rx.try_recv(),
            Ok(Response::Reading { die: 1, .. })
        ));
        assert_eq!(counter(&shared, "svc.deadline_drops"), 1);
        assert_eq!(counter(&shared, "svc.served"), 1);
        assert!(worker.slots[0].is_none(), "a dropped read converts nothing");
        let m = recover(shared.metrics.lock()).reg.snapshot();
        assert_eq!(m.histogram("svc.coalesce_width").unwrap().total, 1);
    }

    #[test]
    fn a_coalesced_group_matches_reads_served_alone() {
        let (shared, mut worker) = one_shard(9, 7);
        let reqs: Vec<Request> = (0..9).map(read).collect();
        let grouped = serve_wake(&shared, &mut worker, &reqs);
        let (solo, mut solo_worker) = one_shard(9, 7);
        for (req, reply) in reqs.iter().zip(&grouped) {
            assert_eq!(
                &serve_wake(&solo, &mut solo_worker, std::slice::from_ref(req))[0],
                reply
            );
        }
        assert_eq!(counter(&shared, "svc.served"), 9);
        let m = recover(shared.metrics.lock()).reg.snapshot();
        assert_eq!(m.histogram("svc.coalesce_width").unwrap().counts[9], 1);
        assert_eq!(m.histogram("svc.latency_us").unwrap().total, 9);
    }
}

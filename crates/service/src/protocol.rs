//! Wire protocol of the fleet daemon: length-prefixed JSON frames with
//! hard field bounds.
//!
//! A frame is a 4-byte big-endian payload length followed by exactly that
//! many bytes of JSON. Both directions use the same framing; the length
//! prefix is bounded by [`MAX_FRAME`] *before* any allocation, so an
//! adversarial prefix cannot make the server reserve gigabytes. Every
//! request field has an explicit bound ([`MAX_PRIORITY`],
//! [`MAX_DEADLINE_MS`], [`TEMP_BOUNDS`], [`MAX_PAD`]) and violations
//! surface as typed [`ProtoError`]s that the server answers with a
//! [`Rejection::BadRequest`] — malformed input is a *client* failure and
//! must never take a worker down (see the fuzz suite in
//! `tests/protocol.rs`).

use crate::json::{self, obj, Value};
use std::fmt;
use std::io::{self, Read, Write};

/// Hard upper bound on a frame payload, bytes. Checked against the length
/// prefix before any payload allocation.
pub const MAX_FRAME: usize = 64 * 1024;

/// Highest request priority (priorities are `0..=MAX_PRIORITY`; higher is
/// more important, and the load shedder evicts lowest-priority reads
/// first).
pub const MAX_PRIORITY: u8 = 3;

/// Largest accepted per-request deadline, ms.
pub const MAX_DEADLINE_MS: u64 = 300_000;

/// Deadline applied when a request does not carry one, ms.
pub const DEFAULT_DEADLINE_MS: u64 = 5_000;

/// Accepted range of the `temp_c` field (the true junction temperature a
/// read simulates), °C.
pub const TEMP_BOUNDS: (f64, f64) = (-100.0, 400.0);

/// Largest `pad` a ping may request, bytes.
pub const MAX_PAD: u64 = 32 * 1024;

/// Largest `count` a `batch_read` may request. Sized so a full batch of
/// reading items (≲190 bytes each on the wire) always fits one
/// [`MAX_FRAME`] response frame.
pub const MAX_BATCH: u64 = 256;

/// One request frame, already bounds-checked.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Convert once on `die` at true junction temperature `temp_c`.
    Read {
        /// Target die index.
        die: u64,
        /// True junction temperature the conversion simulates, °C.
        temp_c: f64,
        /// Shedding priority, `0..=MAX_PRIORITY` (higher survives longer).
        priority: u8,
        /// Deadline budget, ms.
        deadline_ms: u64,
    },
    /// Convert a stripe of dies on one shard in a single frame: the
    /// targets are `die0, die0+S, die0+2S, …` where `S` is the fleet's
    /// shard count — i.e. the `count` lowest-indexed dies ≥ `die0` owned
    /// by `die0`'s shard. The shard drains the whole stripe through the
    /// lane-parallel solve kernel and answers with one item per die, in
    /// die order; a failing die yields a per-item rejection, never a
    /// failed batch.
    BatchRead {
        /// First die of the stripe (also selects the shard).
        die0: u64,
        /// Stripe length, `1..=MAX_BATCH`.
        count: u64,
        /// True junction temperature every die simulates, °C.
        temp_c: f64,
        /// Shedding priority, `0..=MAX_PRIORITY`.
        priority: u8,
        /// Deadline budget for the whole batch, ms.
        deadline_ms: u64,
    },
    /// Re-run the boot-time self-calibration on `die`.
    Calibrate {
        /// Target die index.
        die: u64,
        /// Deadline budget, ms.
        deadline_ms: u64,
    },
    /// Fleet-wide health summary (served even when every shard is dead).
    Health,
    /// Echo with `pad` bytes of payload — protocol plumbing for timeout
    /// and throughput tests.
    Ping {
        /// Response padding size, bytes (`0..=MAX_PAD`).
        pad: u64,
    },
    /// Chaos hook: perturb one die or its shard worker.
    Inject {
        /// Target die index.
        die: u64,
        /// What to inject.
        kind: InjectKind,
    },
    /// Begin graceful shutdown.
    Shutdown,
}

/// Chaos-injection kinds understood by [`Request::Inject`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectKind {
    /// Kill the die's PSRO bank: subsequent reads serve degraded
    /// temperature-only values with an explicit quality flag.
    DegradeDie,
    /// Undo [`InjectKind::DegradeDie`].
    HealDie,
    /// The die's next conversion panics *inside* the per-request isolation
    /// boundary — answered with a typed rejection, shard stays up.
    PanicConversion,
    /// The shard's worker thread panics *outside* the per-request boundary
    /// — exercises supervision: backoff restart or, past the budget, Dead.
    PanicWorker,
    /// The worker stalls this many ms before serving the next request.
    StallMs(u64),
}

impl InjectKind {
    fn name(self) -> &'static str {
        match self {
            InjectKind::DegradeDie => "degrade",
            InjectKind::HealDie => "heal",
            InjectKind::PanicConversion => "panic_conversion",
            InjectKind::PanicWorker => "panic_worker",
            InjectKind::StallMs(_) => "stall",
        }
    }
}

/// Reading quality flag, mirroring
/// [`HealthStatus`](ptsim_core::HealthStatus).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quality {
    /// Full-accuracy, nothing anomalous.
    Nominal,
    /// A fault was detected and masked; values are full-accuracy.
    Recovered,
    /// Reduced mode (e.g. temperature-only with a dead PSRO bank) —
    /// reduced accuracy guarantees, flagged, still served.
    Degraded,
}

impl Quality {
    /// Wire name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Quality::Nominal => "nominal",
            Quality::Recovered => "recovered",
            Quality::Degraded => "degraded",
        }
    }

    fn from_name(s: &str) -> Option<Self> {
        match s {
            "nominal" => Some(Quality::Nominal),
            "recovered" => Some(Quality::Recovered),
            "degraded" => Some(Quality::Degraded),
            _ => None,
        }
    }
}

/// Why a request was refused. Every refusal is typed — the one thing the
/// service never does is drop a request on the floor or serve a corrupted
/// value silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// The deadline passed before (or while) the request was served.
    Timeout,
    /// Admission control shed the request: its shard's queue was full of
    /// same-or-higher-priority work.
    Overloaded,
    /// The target shard is restarting after a crash or permanently dead.
    ShardDown,
    /// The frame was malformed or a field violated its bounds.
    BadRequest,
    /// The die's conversion panicked inside the isolation boundary.
    WorkerPanicked,
    /// The conversion failed with a typed sensor error.
    ConversionFailed,
}

impl Rejection {
    /// Wire name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rejection::Timeout => "timeout",
            Rejection::Overloaded => "overloaded",
            Rejection::ShardDown => "shard_down",
            Rejection::BadRequest => "bad_request",
            Rejection::WorkerPanicked => "worker_panicked",
            Rejection::ConversionFailed => "conversion_failed",
        }
    }

    fn from_name(s: &str) -> Option<Self> {
        match s {
            "timeout" => Some(Rejection::Timeout),
            "overloaded" => Some(Rejection::Overloaded),
            "shard_down" => Some(Rejection::ShardDown),
            "bad_request" => Some(Rejection::BadRequest),
            "worker_panicked" => Some(Rejection::WorkerPanicked),
            "conversion_failed" => Some(Rejection::ConversionFailed),
            _ => None,
        }
    }
}

/// Health summary of one shard, as serialized into a health response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardHealthWire {
    /// Shard index.
    pub id: u64,
    /// `"up"`, `"restarting"`, or `"dead"`.
    pub state: String,
    /// Worker restarts so far.
    pub restarts: u64,
    /// Requests currently queued.
    pub queue_len: u64,
    /// Dies this shard owns.
    pub dies: u64,
}

/// Fleet-wide health summary.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthWire {
    /// Per-shard states.
    pub shards: Vec<ShardHealthWire>,
    /// Merged service counters (name, value), in registration order.
    pub counters: Vec<(String, u64)>,
    /// Milliseconds since the fleet started.
    pub uptime_ms: u64,
    /// Coalescing budget in force: how many queued reads one worker wake
    /// may drain into a single lane-grouped conversion. Operators confirm
    /// the scheduler is actually grouping by reading this next to the
    /// derived `svc.coalesced_wakes` / `svc.coalesced_reads` counters.
    pub coalesce_max: u64,
    /// Highest wire-protocol version this daemon negotiates (`2` = the
    /// binary codec; JSON is always available as v1).
    pub wire_version: u64,
}

/// One die's outcome inside a [`Response::Batch`].
#[derive(Debug, Clone, PartialEq)]
pub enum BatchItem {
    /// The die converted (same fields as [`Response::Reading`]).
    Reading {
        /// Die that converted.
        die: u64,
        /// Sensor-reported temperature, °C.
        temp_c: f64,
        /// Tracked NMOS threshold shift, mV.
        d_vtn_mv: f64,
        /// Tracked PMOS threshold shift, mV.
        d_vtp_mv: f64,
        /// Conversion energy, pJ.
        energy_pj: f64,
        /// Quality flag.
        quality: Quality,
    },
    /// The die's conversion was refused; the rest of the batch still
    /// serves.
    Rejected {
        /// Die that failed.
        die: u64,
        /// Why.
        rejection: Rejection,
        /// Human-readable detail.
        detail: String,
    },
}

/// One response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A served conversion.
    Reading {
        /// Die that converted.
        die: u64,
        /// Sensor-reported temperature, °C.
        temp_c: f64,
        /// Tracked NMOS threshold shift, mV (frozen at calibration when
        /// degraded).
        d_vtn_mv: f64,
        /// Tracked PMOS threshold shift, mV.
        d_vtp_mv: f64,
        /// Conversion energy, pJ.
        energy_pj: f64,
        /// Quality flag.
        quality: Quality,
    },
    /// A served `batch_read`: one item per stripe die, in die order.
    Batch {
        /// Per-die outcomes.
        items: Vec<BatchItem>,
    },
    /// A completed recalibration.
    Calibrated {
        /// Die that recalibrated.
        die: u64,
        /// Quality of the calibration pass.
        quality: Quality,
    },
    /// Fleet health summary.
    Health(HealthWire),
    /// Ping echo.
    Pong {
        /// The padding that was requested.
        pad: String,
    },
    /// Chaos injection acknowledged.
    Injected {
        /// Die targeted.
        die: u64,
    },
    /// A typed refusal.
    Rejected {
        /// Why.
        rejection: Rejection,
        /// Human-readable detail.
        detail: String,
    },
    /// Graceful shutdown acknowledged.
    ShuttingDown,
}

impl Response {
    /// Convenience constructor for refusals.
    #[must_use]
    pub fn rejected(rejection: Rejection, detail: impl Into<String>) -> Self {
        Response::Rejected {
            rejection,
            detail: detail.into(),
        }
    }
}

/// Why a request frame was refused at the protocol layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoError {
    /// The payload was not valid JSON.
    Json(json::JsonError),
    /// The frame was valid JSON but not a known request shape.
    UnknownOp(String),
    /// A required field was absent or of the wrong type.
    BadField(&'static str),
    /// A field was present and typed but violated its bound.
    OutOfBounds {
        /// Field name.
        field: &'static str,
        /// What bound it violated.
        bound: String,
    },
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Json(e) => write!(f, "malformed frame: {e}"),
            ProtoError::UnknownOp(op) => write!(f, "unknown op {op:?}"),
            ProtoError::BadField(name) => write!(f, "missing or mistyped field {name:?}"),
            ProtoError::OutOfBounds { field, bound } => {
                write!(f, "field {field:?} out of bounds: {bound}")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<json::JsonError> for ProtoError {
    fn from(e: json::JsonError) -> Self {
        ProtoError::Json(e)
    }
}

fn field_u64(v: &Value, name: &'static str) -> Result<u64, ProtoError> {
    v.get(name)
        .ok_or(ProtoError::BadField(name))?
        .as_u64()
        .ok_or(ProtoError::BadField(name))
}

fn field_f64(v: &Value, name: &'static str) -> Result<f64, ProtoError> {
    v.get(name)
        .ok_or(ProtoError::BadField(name))?
        .as_f64()
        .ok_or(ProtoError::BadField(name))
}

fn bounded_u64(v: &Value, name: &'static str, default: u64, max: u64) -> Result<u64, ProtoError> {
    let x = match v.get(name) {
        None => return Ok(default),
        Some(field) => field.as_u64().ok_or(ProtoError::BadField(name))?,
    };
    if x > max {
        return Err(ProtoError::OutOfBounds {
            field: name,
            bound: format!("{x} > {max}"),
        });
    }
    Ok(x)
}

impl Request {
    /// Parses and bounds-checks one request payload.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ProtoError`] for malformed JSON, unknown ops,
    /// missing/mistyped fields, or bound violations. Never panics.
    pub fn from_json_bytes(payload: &[u8]) -> Result<Self, ProtoError> {
        let v = json::parse(payload)?;
        let op = v
            .get("op")
            .and_then(Value::as_str)
            .ok_or(ProtoError::BadField("op"))?;
        match op {
            "read" => {
                let die = field_u64(&v, "die")?;
                let temp_c = field_f64(&v, "temp_c")?;
                if !(TEMP_BOUNDS.0..=TEMP_BOUNDS.1).contains(&temp_c) {
                    return Err(ProtoError::OutOfBounds {
                        field: "temp_c",
                        bound: format!("{temp_c} outside {:?}", TEMP_BOUNDS),
                    });
                }
                let priority = bounded_u64(&v, "priority", 1, u64::from(MAX_PRIORITY))? as u8;
                let deadline_ms =
                    bounded_u64(&v, "deadline_ms", DEFAULT_DEADLINE_MS, MAX_DEADLINE_MS)?;
                Ok(Request::Read {
                    die,
                    temp_c,
                    priority,
                    deadline_ms,
                })
            }
            "batch_read" => {
                let die0 = field_u64(&v, "die0")?;
                let count = field_u64(&v, "count")?;
                if count == 0 || count > MAX_BATCH {
                    return Err(ProtoError::OutOfBounds {
                        field: "count",
                        bound: format!("{count} outside 1..={MAX_BATCH}"),
                    });
                }
                if die0.checked_add(count).is_none() {
                    return Err(ProtoError::OutOfBounds {
                        field: "die0",
                        bound: format!("{die0} + {count} overflows the die index space"),
                    });
                }
                let temp_c = field_f64(&v, "temp_c")?;
                if !(TEMP_BOUNDS.0..=TEMP_BOUNDS.1).contains(&temp_c) {
                    return Err(ProtoError::OutOfBounds {
                        field: "temp_c",
                        bound: format!("{temp_c} outside {:?}", TEMP_BOUNDS),
                    });
                }
                let priority = bounded_u64(&v, "priority", 1, u64::from(MAX_PRIORITY))? as u8;
                let deadline_ms =
                    bounded_u64(&v, "deadline_ms", DEFAULT_DEADLINE_MS, MAX_DEADLINE_MS)?;
                Ok(Request::BatchRead {
                    die0,
                    count,
                    temp_c,
                    priority,
                    deadline_ms,
                })
            }
            "calibrate" => Ok(Request::Calibrate {
                die: field_u64(&v, "die")?,
                deadline_ms: bounded_u64(&v, "deadline_ms", DEFAULT_DEADLINE_MS, MAX_DEADLINE_MS)?,
            }),
            "health" => Ok(Request::Health),
            "ping" => Ok(Request::Ping {
                pad: bounded_u64(&v, "pad", 0, MAX_PAD)?,
            }),
            "inject" => {
                let die = field_u64(&v, "die")?;
                let kind = match v.get("fault").and_then(Value::as_str) {
                    Some("degrade") => InjectKind::DegradeDie,
                    Some("heal") => InjectKind::HealDie,
                    Some("panic_conversion") => InjectKind::PanicConversion,
                    Some("panic_worker") => InjectKind::PanicWorker,
                    Some("stall") => {
                        InjectKind::StallMs(bounded_u64(&v, "ms", 0, MAX_DEADLINE_MS)?)
                    }
                    _ => return Err(ProtoError::BadField("fault")),
                };
                Ok(Request::Inject { die, kind })
            }
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ProtoError::UnknownOp(other.to_string())),
        }
    }

    /// Serializes the request as a JSON payload (the client side of
    /// [`Request::from_json_bytes`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        let v = match self {
            Request::Read {
                die,
                temp_c,
                priority,
                deadline_ms,
            } => obj(vec![
                ("op", Value::Str("read".into())),
                ("die", Value::Num(*die as f64)),
                ("temp_c", Value::Num(*temp_c)),
                ("priority", Value::Num(f64::from(*priority))),
                ("deadline_ms", Value::Num(*deadline_ms as f64)),
            ]),
            Request::BatchRead {
                die0,
                count,
                temp_c,
                priority,
                deadline_ms,
            } => obj(vec![
                ("op", Value::Str("batch_read".into())),
                ("die0", Value::Num(*die0 as f64)),
                ("count", Value::Num(*count as f64)),
                ("temp_c", Value::Num(*temp_c)),
                ("priority", Value::Num(f64::from(*priority))),
                ("deadline_ms", Value::Num(*deadline_ms as f64)),
            ]),
            Request::Calibrate { die, deadline_ms } => obj(vec![
                ("op", Value::Str("calibrate".into())),
                ("die", Value::Num(*die as f64)),
                ("deadline_ms", Value::Num(*deadline_ms as f64)),
            ]),
            Request::Health => obj(vec![("op", Value::Str("health".into()))]),
            Request::Ping { pad } => obj(vec![
                ("op", Value::Str("ping".into())),
                ("pad", Value::Num(*pad as f64)),
            ]),
            Request::Inject { die, kind } => {
                let mut pairs = vec![
                    ("op", Value::Str("inject".into())),
                    ("die", Value::Num(*die as f64)),
                    ("fault", Value::Str(kind.name().into())),
                ];
                if let InjectKind::StallMs(ms) = kind {
                    pairs.push(("ms", Value::Num(*ms as f64)));
                }
                obj(pairs)
            }
            Request::Shutdown => obj(vec![("op", Value::Str("shutdown".into()))]),
        };
        v.to_string()
    }
}

impl Response {
    /// Serializes the response as a JSON payload.
    #[must_use]
    pub fn to_json(&self) -> String {
        let v = match self {
            Response::Reading {
                die,
                temp_c,
                d_vtn_mv,
                d_vtp_mv,
                energy_pj,
                quality,
            } => obj(vec![
                ("ok", Value::Bool(true)),
                ("op", Value::Str("read".into())),
                ("die", Value::Num(*die as f64)),
                ("temp_c", Value::Num(*temp_c)),
                ("d_vtn_mv", Value::Num(*d_vtn_mv)),
                ("d_vtp_mv", Value::Num(*d_vtp_mv)),
                ("energy_pj", Value::Num(*energy_pj)),
                ("quality", Value::Str(quality.name().into())),
            ]),
            Response::Batch { items } => obj(vec![
                ("ok", Value::Bool(true)),
                ("op", Value::Str("batch_read".into())),
                (
                    "items",
                    Value::Arr(
                        items
                            .iter()
                            .map(|item| match item {
                                BatchItem::Reading {
                                    die,
                                    temp_c,
                                    d_vtn_mv,
                                    d_vtp_mv,
                                    energy_pj,
                                    quality,
                                } => obj(vec![
                                    ("die", Value::Num(*die as f64)),
                                    ("ok", Value::Bool(true)),
                                    ("temp_c", Value::Num(*temp_c)),
                                    ("d_vtn_mv", Value::Num(*d_vtn_mv)),
                                    ("d_vtp_mv", Value::Num(*d_vtp_mv)),
                                    ("energy_pj", Value::Num(*energy_pj)),
                                    ("quality", Value::Str(quality.name().into())),
                                ]),
                                BatchItem::Rejected {
                                    die,
                                    rejection,
                                    detail,
                                } => obj(vec![
                                    ("die", Value::Num(*die as f64)),
                                    ("ok", Value::Bool(false)),
                                    ("error", Value::Str(rejection.name().into())),
                                    ("detail", Value::Str(detail.clone())),
                                ]),
                            })
                            .collect(),
                    ),
                ),
            ]),
            Response::Calibrated { die, quality } => obj(vec![
                ("ok", Value::Bool(true)),
                ("op", Value::Str("calibrate".into())),
                ("die", Value::Num(*die as f64)),
                ("quality", Value::Str(quality.name().into())),
            ]),
            Response::Health(h) => obj(vec![
                ("ok", Value::Bool(true)),
                ("op", Value::Str("health".into())),
                ("uptime_ms", Value::Num(h.uptime_ms as f64)),
                ("coalesce_max", Value::Num(h.coalesce_max as f64)),
                ("wire_version", Value::Num(h.wire_version as f64)),
                (
                    "shards",
                    Value::Arr(
                        h.shards
                            .iter()
                            .map(|s| {
                                obj(vec![
                                    ("id", Value::Num(s.id as f64)),
                                    ("state", Value::Str(s.state.clone())),
                                    ("restarts", Value::Num(s.restarts as f64)),
                                    ("queue_len", Value::Num(s.queue_len as f64)),
                                    ("dies", Value::Num(s.dies as f64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "counters",
                    Value::Obj(
                        h.counters
                            .iter()
                            .map(|(k, v)| (k.clone(), Value::Num(*v as f64)))
                            .collect(),
                    ),
                ),
            ]),
            Response::Pong { pad } => obj(vec![
                ("ok", Value::Bool(true)),
                ("op", Value::Str("ping".into())),
                ("pad", Value::Str(pad.clone())),
            ]),
            Response::Injected { die } => obj(vec![
                ("ok", Value::Bool(true)),
                ("op", Value::Str("inject".into())),
                ("die", Value::Num(*die as f64)),
            ]),
            Response::Rejected { rejection, detail } => obj(vec![
                ("ok", Value::Bool(false)),
                ("error", Value::Str(rejection.name().into())),
                ("detail", Value::Str(detail.clone())),
            ]),
            Response::ShuttingDown => obj(vec![
                ("ok", Value::Bool(true)),
                ("op", Value::Str("shutdown".into())),
            ]),
        };
        v.to_string()
    }

    /// Parses a response payload (the client side).
    ///
    /// # Errors
    ///
    /// Returns a typed [`ProtoError`]; never panics.
    pub fn from_json_bytes(payload: &[u8]) -> Result<Self, ProtoError> {
        let v = json::parse(payload)?;
        let ok = v
            .get("ok")
            .and_then(Value::as_bool)
            .ok_or(ProtoError::BadField("ok"))?;
        if !ok {
            let rejection = v
                .get("error")
                .and_then(Value::as_str)
                .and_then(Rejection::from_name)
                .ok_or(ProtoError::BadField("error"))?;
            let detail = v
                .get("detail")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string();
            return Ok(Response::Rejected { rejection, detail });
        }
        let op = v
            .get("op")
            .and_then(Value::as_str)
            .ok_or(ProtoError::BadField("op"))?;
        match op {
            "read" => Ok(Response::Reading {
                die: field_u64(&v, "die")?,
                temp_c: field_f64(&v, "temp_c")?,
                d_vtn_mv: field_f64(&v, "d_vtn_mv")?,
                d_vtp_mv: field_f64(&v, "d_vtp_mv")?,
                energy_pj: field_f64(&v, "energy_pj")?,
                quality: v
                    .get("quality")
                    .and_then(Value::as_str)
                    .and_then(Quality::from_name)
                    .ok_or(ProtoError::BadField("quality"))?,
            }),
            "batch_read" => {
                let items = v
                    .get("items")
                    .and_then(Value::as_arr)
                    .ok_or(ProtoError::BadField("items"))?
                    .iter()
                    .map(|item| {
                        let die = field_u64(item, "die")?;
                        let served = item
                            .get("ok")
                            .and_then(Value::as_bool)
                            .ok_or(ProtoError::BadField("items"))?;
                        if served {
                            Ok(BatchItem::Reading {
                                die,
                                temp_c: field_f64(item, "temp_c")?,
                                d_vtn_mv: field_f64(item, "d_vtn_mv")?,
                                d_vtp_mv: field_f64(item, "d_vtp_mv")?,
                                energy_pj: field_f64(item, "energy_pj")?,
                                quality: item
                                    .get("quality")
                                    .and_then(Value::as_str)
                                    .and_then(Quality::from_name)
                                    .ok_or(ProtoError::BadField("quality"))?,
                            })
                        } else {
                            Ok(BatchItem::Rejected {
                                die,
                                rejection: item
                                    .get("error")
                                    .and_then(Value::as_str)
                                    .and_then(Rejection::from_name)
                                    .ok_or(ProtoError::BadField("error"))?,
                                detail: item
                                    .get("detail")
                                    .and_then(Value::as_str)
                                    .unwrap_or_default()
                                    .to_string(),
                            })
                        }
                    })
                    .collect::<Result<Vec<_>, ProtoError>>()?;
                Ok(Response::Batch { items })
            }
            "calibrate" => Ok(Response::Calibrated {
                die: field_u64(&v, "die")?,
                quality: v
                    .get("quality")
                    .and_then(Value::as_str)
                    .and_then(Quality::from_name)
                    .ok_or(ProtoError::BadField("quality"))?,
            }),
            "health" => {
                let shards = v
                    .get("shards")
                    .and_then(Value::as_arr)
                    .ok_or(ProtoError::BadField("shards"))?
                    .iter()
                    .map(|s| {
                        Ok(ShardHealthWire {
                            id: field_u64(s, "id")?,
                            state: s
                                .get("state")
                                .and_then(Value::as_str)
                                .ok_or(ProtoError::BadField("state"))?
                                .to_string(),
                            restarts: field_u64(s, "restarts")?,
                            queue_len: field_u64(s, "queue_len")?,
                            dies: field_u64(s, "dies")?,
                        })
                    })
                    .collect::<Result<Vec<_>, ProtoError>>()?;
                let counters = match v.get("counters") {
                    Some(Value::Obj(pairs)) => pairs
                        .iter()
                        .map(|(k, val)| {
                            Ok((
                                k.clone(),
                                val.as_u64().ok_or(ProtoError::BadField("counters"))?,
                            ))
                        })
                        .collect::<Result<Vec<_>, ProtoError>>()?,
                    _ => return Err(ProtoError::BadField("counters")),
                };
                Ok(Response::Health(HealthWire {
                    shards,
                    counters,
                    uptime_ms: field_u64(&v, "uptime_ms")?,
                    // Absent on pre-v2 daemons; default rather than reject so a
                    // new client can still health-check an old fleet.
                    coalesce_max: field_u64(&v, "coalesce_max").unwrap_or(0),
                    wire_version: field_u64(&v, "wire_version").unwrap_or(1),
                }))
            }
            "ping" => Ok(Response::Pong {
                pad: v
                    .get("pad")
                    .and_then(Value::as_str)
                    .ok_or(ProtoError::BadField("pad"))?
                    .to_string(),
            }),
            "inject" => Ok(Response::Injected {
                die: field_u64(&v, "die")?,
            }),
            "shutdown" => Ok(Response::ShuttingDown),
            other => Err(ProtoError::UnknownOp(other.to_string())),
        }
    }
}

/// How reading one frame ended.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// The length prefix exceeded the configured bound — refused before
    /// any allocation.
    Oversize {
        /// Advertised payload length.
        advertised: usize,
        /// Configured bound.
        max: usize,
    },
    /// The stream ended (or timed out) mid-frame.
    Truncated {
        /// Bytes the frame still owed.
        missing: usize,
    },
    /// Any other I/O failure.
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed at frame boundary"),
            FrameError::Oversize { advertised, max } => {
                write!(
                    f,
                    "frame of {advertised} bytes exceeds the {max}-byte bound"
                )
            }
            FrameError::Truncated { missing } => {
                write!(f, "frame truncated ({missing} bytes missing)")
            }
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates I/O errors (including write timeouts — a slow client
/// surfaces as `WouldBlock`/`TimedOut` here). Payloads longer than
/// [`MAX_FRAME`] are refused with `InvalidInput` rather than sent.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame payload exceeds MAX_FRAME",
        ));
    }
    let len = (payload.len() as u32).to_be_bytes();
    w.write_all(&len)?;
    w.write_all(payload)?;
    w.flush()
}

fn is_poll_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads one length-prefixed frame, refusing oversize prefixes before any
/// allocation.
///
/// A read timeout **at a frame boundary** (zero bytes consumed) surfaces
/// as [`FrameError::Io`] with a `WouldBlock`/`TimedOut` kind — the server
/// uses these as idle-poll ticks. A timeout **mid-frame** is a stalled
/// sender and surfaces as [`FrameError::Truncated`]: the stream is
/// desynchronized at that point and the connection must be dropped.
///
/// # Errors
///
/// [`FrameError::Closed`] on clean EOF at a frame boundary,
/// [`FrameError::Oversize`] / [`FrameError::Truncated`] on protocol
/// violations, [`FrameError::Io`] otherwise.
pub fn read_frame<R: Read>(r: &mut R, max: usize) -> Result<Vec<u8>, FrameError> {
    let mut payload = Vec::new();
    read_frame_into(r, max, &mut payload)?;
    Ok(payload)
}

/// Reads one length-prefixed frame into a caller-owned buffer, reusing its
/// capacity. A warm connection that recycles the same buffer serves every
/// frame at or below the high-water mark without touching the allocator.
///
/// Same timeout/truncation semantics as [`read_frame`].
///
/// # Errors
///
/// As [`read_frame`].
pub fn read_frame_into<R: Read>(
    r: &mut R,
    max: usize,
    buf: &mut Vec<u8>,
) -> Result<(), FrameError> {
    let header = read_prefix(r)?;
    read_body_into(r, header, max, buf)
}

/// Reads the 4-byte frame prefix, tolerating idle-poll timeouts only when
/// zero bytes have been consumed (the frame-boundary rule of
/// [`read_frame`]). The server also calls this directly during version
/// negotiation: the first four bytes of a connection are either the v2
/// magic or a JSON frame's length prefix.
///
/// # Errors
///
/// [`FrameError::Closed`] on clean EOF before any byte,
/// [`FrameError::Truncated`] on EOF/timeout mid-prefix, [`FrameError::Io`]
/// otherwise.
pub fn read_prefix<R: Read>(r: &mut R) -> Result<[u8; 4], FrameError> {
    let mut header = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut header[got..]) {
            Ok(0) => {
                return Err(if got == 0 {
                    FrameError::Closed
                } else {
                    FrameError::Truncated { missing: 4 - got }
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_poll_timeout(&e) && got > 0 => {
                return Err(FrameError::Truncated { missing: 4 - got })
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(header)
}

/// Reads one byte mid-stream (the v2 version byte during negotiation).
/// Unlike the prefix read, a timeout here is always [`FrameError::Truncated`]
/// — the peer already committed to a handshake.
///
/// # Errors
///
/// [`FrameError::Truncated`] on EOF/timeout, [`FrameError::Io`] otherwise.
pub fn read_byte<R: Read>(r: &mut R) -> Result<u8, FrameError> {
    let mut b = [0u8; 1];
    loop {
        match r.read(&mut b) {
            Ok(0) => return Err(FrameError::Truncated { missing: 1 }),
            Ok(_) => return Ok(b[0]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_poll_timeout(&e) => return Err(FrameError::Truncated { missing: 1 }),
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
}

/// Reads a frame body whose 4-byte prefix was already consumed (by
/// [`read_prefix`]), bounds-checking the advertised length before growing
/// the buffer. The buffer's capacity is reused across calls.
///
/// # Errors
///
/// [`FrameError::Oversize`] / [`FrameError::Truncated`] on protocol
/// violations, [`FrameError::Io`] otherwise.
pub fn read_body_into<R: Read>(
    r: &mut R,
    header: [u8; 4],
    max: usize,
    buf: &mut Vec<u8>,
) -> Result<(), FrameError> {
    let advertised = u32::from_be_bytes(header) as usize;
    if advertised > max {
        return Err(FrameError::Oversize { advertised, max });
    }
    buf.clear();
    buf.resize(advertised, 0);
    let mut filled = 0;
    while filled < advertised {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(FrameError::Truncated {
                    missing: advertised - filled,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_poll_timeout(&e) => {
                return Err(FrameError::Truncated {
                    missing: advertised - filled,
                })
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// Starts a reusable outgoing frame: clears the buffer and reserves the
/// 4-byte length slot. Encode the payload directly after, then call
/// [`finish_frame`] to patch the prefix — one buffer, one `write_all`, no
/// intermediate copies.
pub fn begin_frame(buf: &mut Vec<u8>) {
    buf.clear();
    buf.extend_from_slice(&[0u8; 4]);
}

/// Patches the length prefix of a frame started with [`begin_frame`].
///
/// # Errors
///
/// Refuses payloads longer than [`MAX_FRAME`] with `InvalidInput`, mirroring
/// [`write_frame`].
pub fn finish_frame(buf: &mut [u8]) -> io::Result<()> {
    debug_assert!(buf.len() >= 4, "finish_frame on a buffer without a prefix");
    let payload = buf.len() - 4;
    if payload > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame payload exceeds MAX_FRAME",
        ));
    }
    buf[0..4].copy_from_slice(&(payload as u32).to_be_bytes());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"op\":\"health\"}").unwrap();
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cursor, MAX_FRAME).unwrap(),
            b"{\"op\":\"health\"}"
        );
        assert!(matches!(
            read_frame(&mut cursor, MAX_FRAME),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn oversize_prefix_refused_before_allocation() {
        let mut buf = Vec::from(u32::MAX.to_be_bytes());
        buf.extend_from_slice(b"xx");
        let err = read_frame(&mut io::Cursor::new(buf), MAX_FRAME).unwrap_err();
        assert!(
            matches!(err, FrameError::Oversize { advertised, .. } if advertised == u32::MAX as usize)
        );
    }

    #[test]
    fn truncated_frame_reports_missing_bytes() {
        let mut buf = Vec::from(10u32.to_be_bytes());
        buf.extend_from_slice(b"abc");
        let err = read_frame(&mut io::Cursor::new(buf), MAX_FRAME).unwrap_err();
        assert!(matches!(err, FrameError::Truncated { missing: 7 }));
    }

    #[test]
    fn read_request_bounds_are_enforced() {
        let ok = Request::from_json_bytes(
            br#"{"op":"read","die":3,"temp_c":85.0,"priority":2,"deadline_ms":100}"#,
        )
        .unwrap();
        assert_eq!(
            ok,
            Request::Read {
                die: 3,
                temp_c: 85.0,
                priority: 2,
                deadline_ms: 100
            }
        );
        // Defaults apply when optional fields are absent.
        let defaulted = Request::from_json_bytes(br#"{"op":"read","die":0,"temp_c":25}"#).unwrap();
        assert_eq!(
            defaulted,
            Request::Read {
                die: 0,
                temp_c: 25.0,
                priority: 1,
                deadline_ms: DEFAULT_DEADLINE_MS
            }
        );
        for bad in [
            &br#"{"op":"read","die":3,"temp_c":1000.0}"#[..],
            br#"{"op":"read","die":3,"temp_c":25,"priority":9}"#,
            br#"{"op":"read","die":3,"temp_c":25,"deadline_ms":99999999}"#,
            br#"{"op":"read","die":-1,"temp_c":25}"#,
            br#"{"op":"read","temp_c":25}"#,
            br#"{"op":"warp","die":3}"#,
            br#"{"die":3}"#,
            br#"not json"#,
        ] {
            assert!(Request::from_json_bytes(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn batch_read_bounds_are_enforced() {
        let ok = Request::from_json_bytes(
            br#"{"op":"batch_read","die0":2,"count":16,"temp_c":85.0,"priority":2,"deadline_ms":100}"#,
        )
        .unwrap();
        assert_eq!(
            ok,
            Request::BatchRead {
                die0: 2,
                count: 16,
                temp_c: 85.0,
                priority: 2,
                deadline_ms: 100
            }
        );
        // Defaults apply when optional fields are absent.
        let defaulted =
            Request::from_json_bytes(br#"{"op":"batch_read","die0":0,"count":1,"temp_c":25}"#)
                .unwrap();
        assert_eq!(
            defaulted,
            Request::BatchRead {
                die0: 0,
                count: 1,
                temp_c: 25.0,
                priority: 1,
                deadline_ms: DEFAULT_DEADLINE_MS
            }
        );
        for bad in [
            &br#"{"op":"batch_read","die0":0,"count":0,"temp_c":25}"#[..],
            br#"{"op":"batch_read","die0":0,"count":257,"temp_c":25}"#,
            br#"{"op":"batch_read","die0":18446744073709551615,"count":2,"temp_c":25}"#,
            br#"{"op":"batch_read","die0":0,"count":4,"temp_c":1000.0}"#,
            br#"{"op":"batch_read","die0":0,"count":4,"temp_c":25,"priority":9}"#,
            br#"{"op":"batch_read","die0":0,"temp_c":25}"#,
            br#"{"op":"batch_read","count":4,"temp_c":25}"#,
            br#"{"op":"batch_read","die0":0,"count":4}"#,
        ] {
            assert!(Request::from_json_bytes(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn batch_response_round_trips_mixed_items() {
        let resp = Response::Batch {
            items: vec![
                BatchItem::Reading {
                    die: 3,
                    temp_c: 61.25,
                    d_vtn_mv: -4.5,
                    d_vtp_mv: 2.0,
                    energy_pj: 123.0,
                    quality: Quality::Nominal,
                },
                BatchItem::Rejected {
                    die: 7,
                    rejection: Rejection::ConversionFailed,
                    detail: "channel failed".to_string(),
                },
            ],
        };
        let parsed = Response::from_json_bytes(resp.to_json().as_bytes()).unwrap();
        assert_eq!(parsed, resp);
    }

    #[test]
    fn full_batch_response_fits_one_frame() {
        // MAX_BATCH is sized so the largest possible batch response still
        // frames: fill every item with worst-case-width numbers.
        let items = (0..MAX_BATCH)
            .map(|die| BatchItem::Reading {
                die: u64::MAX - die,
                temp_c: -99.123_456_789_012_35,
                d_vtn_mv: -123.456_789_012_345_67,
                d_vtp_mv: -123.456_789_012_345_67,
                energy_pj: 123_456.789_012_345_67,
                quality: Quality::Recovered,
            })
            .collect();
        let payload = Response::Batch { items }.to_json();
        let mut buf = Vec::new();
        write_frame(&mut buf, payload.as_bytes())
            .expect("a full batch response must fit MAX_FRAME");
    }

    #[test]
    fn proto_errors_display() {
        let e = Request::from_json_bytes(br#"{"op":"warp"}"#).unwrap_err();
        assert!(e.to_string().contains("warp"));
        let e = Request::from_json_bytes(br#"{"op":"read","die":1,"temp_c":900}"#).unwrap_err();
        assert!(e.to_string().contains("temp_c"));
    }
}

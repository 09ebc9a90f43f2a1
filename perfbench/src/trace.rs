//! In-memory spans recorded around calls into each layer's public API.
//!
//! Each recording thread owns a [`Tracer`]; a span holds its name, start,
//! end, parent span and request id. Nothing is written while a workload
//! runs: the tracers are merged and dumped once, at exit.

use std::io::Write;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch` (shared by every
    /// tracer of a run, so merged spans share one time axis).
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: u32, req: u64) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        let end = self.now_ns();
        self.spans[id as usize].end_ns = end;
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }

    /// Durations of every span called `name`, µs.
    pub fn us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    /// Self time of every span called `name`, µs: its duration minus the
    /// time its direct children cover (children of one tracer never
    /// overlap, since a tracer belongs to one thread).
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        let mut child_us = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_us[s.parent as usize] += s.us();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.us() - child_us[i])
            .collect()
    }

    /// Moves `other`'s spans in, re-basing its parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    /// Writes one tab-separated line per span:
    /// `id parent req name start_ns end_ns` (parent `-` for a root).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

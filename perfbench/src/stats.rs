//! Order statistics with their sample counts, and the run's metric sheet.

/// A sorted sample of one measured quantity.
#[derive(Debug, Clone)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Dist { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    fn rank(&self, q: f64) -> usize {
        let n = self.sorted.len();
        ((q * n as f64).ceil() as usize).clamp(1, n) - 1
    }

    /// Nearest-rank quantile; NaN for an empty sample.
    pub fn q(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        self.sorted[self.rank(q)]
    }

    pub fn p50(&self) -> f64 {
        self.q(0.5)
    }

    pub fn p99(&self) -> f64 {
        self.q(0.99)
    }

    /// Samples strictly above the nearest-rank `q` quantile's position.
    pub fn beyond(&self, q: f64) -> usize {
        if self.sorted.is_empty() {
            return 0;
        }
        self.sorted.len() - 1 - self.rank(q)
    }
}

pub fn median(values: &[f64]) -> f64 {
    Dist::new(values.to_vec()).p50()
}

/// Every metric a run reports, in report order, plus the run's operation
/// ledger and correctness verdict.
#[derive(Debug, Default)]
pub struct Sheet {
    pub metrics: Vec<(String, f64, &'static str, String)>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Sheet {
    /// Records a metric; `note` says what it was computed from (sample
    /// counts for percentiles).
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        if !value.is_finite() {
            self.problem(format!("metric {name} is not finite ({value})"));
        }
        self.metrics
            .push((name.to_string(), value, unit, note.into()));
    }

    /// Records the median of `(host, reference)` rate pairs: the host
    /// figure as `name`, the one scaled to the yardstick's reference host
    /// as `name.ref`.
    pub fn put_rates(
        &mut self,
        name: &str,
        rates: &[(f64, f64)],
        unit: &'static str,
        note: String,
    ) {
        let host: Vec<f64> = rates.iter().map(|r| r.0).collect();
        let reference: Vec<f64> = rates.iter().map(|r| r.1).collect();
        self.put(name, median(&host), unit, note.clone());
        self.put(
            &format!("{name}.ref"),
            median(&reference),
            unit,
            format!(
                "{note}, scaled to a {} s yardstick",
                crate::yardstick::REF_S
            ),
        );
    }

    /// Records a percentile metric with its sample count, flagging one
    /// with fewer than ten samples beyond it.
    pub fn put_q(&mut self, name: &str, d: &Dist, q: f64, scale: f64, unit: &'static str) {
        let short = if d.beyond(q) < 10 {
            format!(", only {} beyond q{q}", d.beyond(q))
        } else {
            String::new()
        };
        self.put(name, d.q(q) * scale, unit, format!("n={}{short}", d.len()));
    }

    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// A failed correctness check: the run reports `correct: false`.
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }

    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.problem(msg());
        }
    }

    /// `{"attempted":…,"failed":…,"problems":[…],"metrics":{name:{"value":…,"unit":…}}}`
    pub fn to_json(&self) -> String {
        let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u, _)| {
                let v = if v.is_finite() {
                    format!("{v:?}")
                } else {
                    "null".to_string()
                };
                format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", esc(n), esc(u))
            })
            .collect();
        let problems: Vec<String> = self
            .problems
            .iter()
            .map(|p| format!("\"{}\"", esc(p)))
            .collect();
        format!(
            "{{\"attempted\":{},\"failed\":{},\"problems\":[{}],\"metrics\":{{{}}}}}",
            self.attempted,
            self.failed,
            problems.join(","),
            metrics.join(",")
        )
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, ..)| n == name)
            .map(|(_, v, ..)| *v)
    }
}

/// FNV-1a over the bit patterns of simulated outputs: equal digests mean
/// bit-identical outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

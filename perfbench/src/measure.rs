//! Measurement plumbing shared by every workload: latency samples,
//! medians, the process's peak RSS, and the report that prints
//! `name value unit` lines and the final JSON result.

use daenerys_obs::Json;
use std::collections::BTreeMap;
use std::time::Duration;

/// Latency samples, exact to the nanosecond.
#[derive(Default)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn record(&mut self, d: Duration) {
        self.0.push(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Empties the buffer, keeping its capacity, so that a run's own
    /// memory does not grow with its op count (and move `peak_rss_mb`
    /// with the speed of the program under test).
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// The `q`-quantile in milliseconds, by nearest rank: the
    /// `⌈q·n⌉`-th smallest sample (0 when empty).
    pub fn quantile_ms(&mut self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.sort_unstable();
        let rank = ((q * self.0.len() as f64).ceil() as usize).clamp(1, self.0.len());
        self.0[rank - 1] as f64 / 1e6
    }
}

/// Median of a few repeated measurements (e.g. set-up times).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `q`-quantile of `values` by nearest rank: the `⌈q·n⌉`-th
/// smallest (the smallest for `q` = 0; 0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len().max(1));
    v.get(rank - 1).copied().unwrap_or(0.0)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `VmHWM` (peak resident set) of this process, in KiB, from
/// `/proc/self/status`; `None` where procfs is unavailable.
pub fn vmhwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Ratio with an empty denominator reading as 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One run's outcome: the ops it attempted, the ones that failed and
/// why, the metrics the result line carries, and supporting figures
/// (sample counts, per-rung numbers) that are printed but not gated.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    failures: Vec<String>,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    extras: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Counts one op as failed (the run goes on).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extras.push((name.to_string(), value, unit));
    }

    /// `op_p50_ms{suffix}` and `op_p90_ms{suffix}` of `lat`, with the
    /// sample count.
    pub fn latency(&mut self, suffix: &str, lat: &mut Samples, gated: bool) {
        for q in [50, 90] {
            let name = format!("op_p{}_ms{}", q, suffix);
            let value = lat.quantile_ms(f64::from(q) / 100.0);
            if gated {
                self.metric(&name, value, "ms");
            } else {
                self.extra(&name, value, "ms");
            }
        }
        self.extra(&format!("op_samples{}", suffix), lat.len() as f64, "count");
    }

    fn metrics_json(list: &[(String, f64, &'static str)]) -> Json {
        Json::Obj(
            list.iter()
                .map(|(name, value, unit)| {
                    let cell = BTreeMap::from([
                        ("value".to_string(), Json::Num(*value)),
                        ("unit".to_string(), Json::Str(unit.to_string())),
                    ]);
                    (name.clone(), Json::Obj(cell))
                })
                .collect(),
        )
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> Json {
        Json::Obj(BTreeMap::from([
            ("correct".to_string(), Json::Bool(self.failed == 0)),
            ("attempted".to_string(), Json::Num(self.attempted as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
            ("metrics".to_string(), Report::metrics_json(&self.metrics)),
        ]))
    }

    /// The summary file: the result plus the supporting figures and the
    /// first failure messages.
    pub fn summary_json(&self, workload: &str, seed: u64, trace: bool) -> Json {
        let Json::Obj(mut obj) = self.result_json() else {
            unreachable!("result_json builds an object")
        };
        obj.insert("workload".to_string(), Json::Str(workload.to_string()));
        obj.insert("seed".to_string(), Json::Num(seed as f64));
        obj.insert("trace".to_string(), Json::Bool(trace));
        obj.insert("supporting".to_string(), Report::metrics_json(&self.extras));
        obj.insert(
            "failures".to_string(),
            Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
        );
        Json::Obj(obj)
    }

    /// Prints every figure as `name value unit`, failures to stderr,
    /// and the result object as the last line of stdout.
    pub fn print(&self) {
        for (name, value, unit) in self.extras.iter().chain(&self.metrics) {
            println!("{} {} {}", name, value, unit);
        }
        for why in &self.failures {
            eprintln!("benchmark: failed op: {}", why);
        }
        println!("{}", self.result_json().render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let mut lat = Samples::default();
        for us in (1..=1000u64).rev() {
            lat.record(Duration::from_micros(us));
        }
        assert_eq!(lat.quantile_ms(0.5), 0.5);
        assert_eq!(lat.quantile_ms(0.9), 0.9);
        assert_eq!(lat.quantile_ms(1.0), 1.0);
        assert_eq!(lat.len(), 1000);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quantile_of_values_is_nearest_rank() {
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.1), 2.0);
        assert_eq!(quantile(&v, 0.9), 18.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[5.0], 0.1), 5.0);
        assert_eq!(quantile(&[], 0.1), 0.0);
    }
}

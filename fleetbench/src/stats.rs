//! Sample statistics and the result document.

use std::fmt::Write as _;

/// Samples needed beyond a reported percentile: a p99 over fewer than
/// 1,000 samples would just be one of the ten largest values.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending sample set, with the number of
/// samples that lie beyond it. `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond the rank, so the caller cannot report it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<(f64, usize)> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    (beyond >= MIN_BEYOND).then(|| (sorted[rank - 1], beyond))
}

/// Nearest-rank quantile of an ascending, non-empty sample set.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1]
}

/// Median of an unsorted set (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Sort in place and return the slice, for [`percentile`].
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// One reported metric: name, value, unit, and how it was derived
/// (sample counts, which rounds) for the human-readable lines.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

/// The metrics of one run, in report order.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        });
    }

    /// Add a percentile of `samples` (any order); an error names the
    /// metric when too few samples lie beyond it.
    pub fn add_pct(
        &mut self,
        name: &str,
        samples: &[f64],
        q: f64,
        unit: &'static str,
    ) -> Result<(), String> {
        let s = sorted(samples.to_vec());
        match percentile(&s, q) {
            Some((v, beyond)) => {
                self.add(name, v, unit, format!("n={} beyond={beyond}", s.len()));
                Ok(())
            }
            None => Err(format!(
                "{name}: {} samples leave fewer than {MIN_BEYOND} beyond p{}",
                s.len(),
                q * 100.0
            )),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The human-readable lines: one metric per line with its unit and
    /// derivation.
    pub fn print_lines(&self, prefix: &str) {
        for m in &self.metrics {
            println!(
                "{prefix}{:<32} {:>14} {:<6} {}",
                m.name,
                fmt_num(m.value),
                m.unit,
                m.note
            );
        }
    }

    /// The `metrics` object of the result document, restricted to
    /// `names` in that order.
    pub fn json_metrics<S: AsRef<str>>(&self, names: &[S]) -> Result<String, String> {
        let mut out = String::from("{");
        for (i, name) in names.iter().enumerate() {
            let name = name.as_ref();
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_num(m.value),
                m.unit
            );
        }
        out.push('}');
        Ok(out)
    }
}

/// A number as measured, with every digit `f64` carries; finite always
/// (non-finite values render as 0 and are caught by the metric checks).
pub fn fmt_num(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Fast 64-bit digest of a byte string, including its length. Each
/// 8-byte word passes through a bijective mix, so any single changed word
/// changes the result.
pub fn digest(data: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = (data.len() as u64).wrapping_mul(K) ^ 0x243F_6A88_85A3_08D3;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
        h = (h ^ w).wrapping_mul(K).rotate_left(29);
    }
    let mut tail = [0u8; 8];
    let rest = chunks.remainder();
    tail[..rest.len()].copy_from_slice(rest);
    h = (h ^ u64::from_le_bytes(tail))
        .wrapping_mul(K)
        .rotate_left(29);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some((990.0, 10)));
        assert_eq!(percentile(&v, 0.995), None);
        assert_eq!(percentile(&v, 0.5), Some((500.0, 500)));
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.5), 4.0);
        assert_eq!(quantile(&v, 0.75), 6.0);
        assert_eq!(quantile(&[3.0], 0.25), 3.0);
    }

    #[test]
    fn digest_sees_one_flipped_byte_and_truncation() {
        let data: Vec<u8> = (0..4099u32).map(|i| (i * 7) as u8).collect();
        let d = digest(&data);
        for i in [0, 5, 8, 4095, 4098] {
            let mut x = data.clone();
            x[i] ^= 1;
            assert_ne!(digest(&x), d);
        }
        assert_ne!(digest(&data[..4098]), d);
    }
}

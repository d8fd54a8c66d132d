//! Host fingerprint and process resource readings.

use crate::json::Json;

/// What a published number depends on besides the code.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu: String,
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// Worker threads of every pool the benchmark drives.
    pub pool_threads: usize,
    /// Active kernel tier (`avx2` or `portable`).
    pub kernel_tier: &'static str,
    /// Raw `LP_PORTABLE_KERNELS` value (empty when unset).
    pub portable_env: String,
    /// `rustc -V` of the toolchain on `PATH`.
    pub rustc: String,
    /// Commit of the checkout, when it is a git work tree.
    pub git_rev: String,
    /// Workload seed.
    pub seed: u64,
}

impl Fingerprint {
    /// Reads the fingerprint of this host and checkout.
    pub fn collect(pool_threads: usize, seed: u64) -> Fingerprint {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = std::process::Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            cpu,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            pool_threads,
            kernel_tier: lp::simd::kernel_tier(),
            portable_env: std::env::var(lp::simd::PORTABLE_ENV).unwrap_or_default(),
            rustc,
            git_rev: git_rev(),
            seed,
        }
    }

    /// The fingerprint as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("cpu", Json::Str(self.cpu.clone())),
            ("nproc", Json::Int(self.nproc as u64)),
            ("pool_threads", Json::Int(self.pool_threads as u64)),
            ("kernel_tier", Json::Str(self.kernel_tier.into())),
            ("lp_portable_kernels", Json::Str(self.portable_env.clone())),
            ("rustc", Json::Str(self.rustc.clone())),
            ("git_rev", Json::Str(self.git_rev.clone())),
            ("seed", Json::Int(self.seed)),
        ])
    }
}

/// `HEAD`'s commit read from `.git` in the working directory, without
/// running git (benchmark checkouts are often not repositories).
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (no .git)".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("unresolved {r}")),
        None => head,
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Cumulative steal and total jiffies of all CPUs, from `/proc/stat`.
pub fn steal_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already inside user and nice.
    Some((*v.get(7)?, v.iter().take(8).sum()))
}

/// Share of all CPU time the host stole from this machine between two
/// [`steal_jiffies`] readings, in percent.
pub fn steal_pct(from: Option<(u64, u64)>, to: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (from?, to?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64 * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_is_a_percentage() {
        assert_eq!(steal_pct(Some((10, 100)), Some((15, 200))), Some(5.0));
        assert_eq!(steal_pct(Some((10, 100)), Some((10, 100))), None);
        assert_eq!(steal_pct(None, Some((1, 2))), None);
    }
}

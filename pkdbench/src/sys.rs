//! Process measurements from procfs and the recorded build environment.

use fedpkd_tensor::parallel::max_workers;
use fedpkd_tensor::plan::{plan_mode, PlanMode};
use fedpkd_tensor::{kernel_mode, KernelMode};

use crate::json;

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, 100 on
/// every Linux ABI the benchmark runs on).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of the whole process (all threads).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return f64::NAN;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => (u + s) / USER_HZ,
        _ => f64::NAN,
    }
}

/// Peak resident set size of the process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kib: f64 = line
                    .strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .ok()?;
                Some(kib / 1024.0)
            })
        })
        .unwrap_or(f64::NAN)
}

/// The environment a run measured under.
#[derive(Debug, Clone)]
pub struct Env {
    pub nproc: usize,
    pub workers: usize,
    pub kernels: &'static str,
    pub plan: &'static str,
    pub rustflags: &'static str,
    pub commit: String,
}

impl Env {
    pub fn capture() -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            workers: max_workers(),
            kernels: match kernel_mode() {
                KernelMode::Scalar => "scalar",
                KernelMode::Fast => "fast",
            },
            plan: match plan_mode() {
                PlanMode::Sequential => "sequential",
                PlanMode::Grouped => "grouped",
            },
            rustflags: env!("PKDBENCH_RUSTFLAGS"),
            commit: commit(),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"workers\": {}, \"kernels\": {}, \"plan\": {}, \"rustflags\": {}, \"commit\": {}}}",
            self.nproc,
            self.workers,
            json::quote(self.kernels),
            json::quote(self.plan),
            json::quote(self.rustflags),
            json::quote(&self.commit)
        )
    }
}

/// The checked-out commit, read from `.git` when the run is in a git
/// checkout; `"unknown"` otherwise (an exported tree carries no commit).
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(reference) => read(&format!(".git/{reference}")).unwrap_or(head),
            None => head,
        },
        None => "unknown".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_counters_are_readable() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= before);
        assert!(peak_rss_mb() > 0.0);
    }
}

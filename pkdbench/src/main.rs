//! The FedPKD benchmark.
//!
//! ```text
//! cargo run --release --manifest-path pkdbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` repeats the workload through
//! the public API for `--seconds`, checks every output, and prints the
//! end-to-end metrics that `BENCHMARK.json` declares. `--trace 1` runs the
//! workload once untraced and once under a timestamping observer, then
//! probes each layer's public functions at the workload's shapes, and
//! prints the per-layer metrics; its spans go to `.bench_out/`. The last
//! line of standard output is always the JSON result; the exit status is
//! non-zero when an output check fails. See `pkdbench/README.md`.

mod json;
mod metrics;
mod probe;
mod serve;
mod span;
mod stats;
mod sys;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::time::Instant;

use fedpkd_core::telemetry::NullObserver;
use fedpkd_netsim::bytes_to_mb;

use metrics::Metrics;
use workload::Workload;

/// Environment variables that select a kernel tier, plan or scale behind
/// the benchmark's back. The benchmark refuses to run with any of them set
/// so an inherited environment cannot silently measure something else.
const PINNED_VARS: [&str; 3] = ["FEDPKD_KERNELS", "FEDPKD_PLAN", "FEDPKD_SCALE"];
const PINNED_PREFIX: &str = "FEDPKD_PERF_";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("bad seconds {value:?}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Names of set variables that would change what is measured.
fn inherited_overrides() -> Vec<String> {
    std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| PINNED_VARS.contains(&k.as_str()) || k.starts_with(PINNED_PREFIX))
        .collect()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("record") {
        record(&argv[1..]);
        return;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => fail(
            2,
            &format!(
                "{e}\nusage: pkdbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            ),
        ),
    };
    let overrides = inherited_overrides();
    if !overrides.is_empty() {
        fail(
            2,
            &format!("refusing to run with {} set", overrides.join(", ")),
        );
    }
    let declared = match metrics::Declared::load(Path::new("BENCHMARK.json")) {
        Ok(d) => d,
        Err(e) => fail(2, &format!("BENCHMARK.json: {e}")),
    };
    let out_dir = PathBuf::from(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        fail(2, &format!("cannot create {}: {e}", out_dir.display()));
    }
    let env = sys::Env::capture();
    println!("# env {}", env.to_json());
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let outcome = if args.trace {
        trace::run(
            args.workload,
            args.seed,
            &out_dir,
            &env,
            &declared.per_layer,
        )
    } else {
        match args.workload {
            Workload::ServeUds => run_serve(&args, &out_dir),
            w => run_training(w, &args, &out_dir),
        }
    };
    let expected = if args.trace {
        &declared.per_layer
    } else {
        &declared.end_to_end
    };
    if let Err(e) = outcome.metrics.check_against(expected) {
        fail(3, &format!("metrics disagree with BENCHMARK.json: {e}"));
    }
    for problem in &outcome.problems {
        eprintln!("pkdbench: CHECK FAILED: {problem}");
    }
    let correct = outcome.problems.is_empty();
    for line in outcome.metrics.lines() {
        println!("{line}");
    }
    println!(
        "{}",
        outcome
            .metrics
            .result_line(correct, outcome.attempted, outcome.failed)
    );
    if !correct {
        std::process::exit(1);
    }
}

/// `pkdbench record <first-seed> <last-seed>`: runs every training
/// workload at each seed of the range and prints its reference line (see
/// `workload::RECORDED`).
fn record(argv: &[String]) {
    let seeds: Vec<u64> = argv.iter().filter_map(|a| a.parse().ok()).collect();
    let [first, last] = seeds[..] else {
        fail(2, "usage: pkdbench record <first-seed> <last-seed>");
    };
    let overrides = inherited_overrides();
    if !overrides.is_empty() {
        fail(
            2,
            &format!("refusing to run with {} set", overrides.join(", ")),
        );
    }
    for seed in first..=last {
        for w in Workload::ALL {
            if let Some(shape) = w.train() {
                let rep = workload::run_rep(&shape, seed, &mut NullObserver);
                let fp = workload::fingerprint(&rep.result, shape.rounds);
                println!("{}", fp.record_line(w, seed));
            }
        }
    }
}

/// Prints `message` to stderr and exits with `code`, printing no result.
fn fail(code: i32, message: &str) -> ! {
    eprintln!("pkdbench: {message}");
    std::process::exit(code);
}

/// What one benchmark run measured and checked.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: usize,
    pub failed: usize,
    /// Output-check failures; any makes the whole run count as failed.
    pub problems: Vec<String>,
}

impl Outcome {
    fn new(metrics: Metrics, attempted: usize, failed: usize, problems: Vec<String>) -> Self {
        let failed = if problems.is_empty() {
            failed
        } else {
            attempted
        };
        Self {
            metrics,
            attempted: attempted.max(1),
            failed,
            problems,
        }
    }
}

fn run_training(w: Workload, args: &Args, out_dir: &Path) -> Outcome {
    let shape = w.train().expect("a training workload");
    let mut problems = Vec::new();
    let (mut setups, mut reps_round_s) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let mut first: Option<(workload::Fingerprint, fedpkd_core::runtime::RunResult)> = None;
    let mut peak_rss_mb = f64::NAN;
    let started = Instant::now();
    loop {
        // The first repetition in a fresh process is the workload alone,
        // so it measures peak RSS; later ones add allocator reuse, and a
        // set-up timed after every round (see `workload::Counting`).
        let u = workload::untraced_rep(w, &shape, args.seed, out_dir, first.is_some());
        if first.is_none() {
            peak_rss_mb = sys::peak_rss_mb();
        }
        setups.extend(u.setup_s);
        let rep = u.rep;
        attempted += u.counts.attempted();
        failed += u.counts.failed();
        reps_round_s.push(u.round_s);
        problems.extend(u.sink_error);
        problems.extend(workload::sanity(&shape, &rep.result));
        let fp = workload::fingerprint(&rep.result, shape.rounds);
        match &first {
            None => first = Some((fp, rep.result)),
            Some((reference, _)) if *reference != fp => {
                problems.push(format!(
                    "repetition {} diverged from the first",
                    reps_round_s.len()
                ));
            }
            Some(_) => {}
        }
        if reps_round_s.len() >= 2 && started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let (fp, result) = first.expect("at least one repetition");
    problems.extend(workload::check_recorded(w, args.seed, &fp));
    let k = workload::REFERENCE_ROUNDS.min(shape.rounds);
    if workload::fingerprint(&result, k) != workload::reference(&shape, args.seed) {
        problems.push(format!(
            "first {k} rounds differ from the reference execution (scalar kernels, sequential plan, one worker)"
        ));
    }
    let run_s = round_median_sum(&reps_round_s);
    eprintln!(
        "pkdbench: {} reps, rep run_s {:?}, round-median run_s {run_s}",
        reps_round_s.len(),
        reps_round_s
            .iter()
            .map(|r| r.iter().sum::<f64>())
            .collect::<Vec<_>>()
    );
    let mut m = Metrics::default();
    m.set("run_s", "s", run_s);
    m.set("setup_s", "s", stats::median(&setups));
    m.set("comm_mb", "MB", bytes_to_mb(result.ledger.total_bytes()));
    m.set("peak_rss_mb", "MB", peak_rss_mb);
    Outcome::new(m, attempted, failed, problems)
}

/// The run time of a typical repetition: each round's median wall time
/// across the repetitions, summed over rounds. A burst of machine noise
/// that slows a few rounds of one repetition then moves the result far
/// less than it moves that repetition's total.
fn round_median_sum(reps: &[Vec<f64>]) -> f64 {
    let rounds = reps.iter().map(Vec::len).min().unwrap_or(0);
    (0..rounds)
        .map(|r| stats::median(&reps.iter().map(|rep| rep[r]).collect::<Vec<_>>()))
        .sum()
}

fn run_serve(args: &Args, out_dir: &Path) -> Outcome {
    let expected = serve::reference(args.seed);
    let mut problems = Vec::new();
    let (mut setups, mut runs, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let started = Instant::now();
    loop {
        let s = serve::session(out_dir, args.seed, &expected, &mut NullObserver);
        attempted += s.attempted();
        failed += s.failed();
        problems.extend(s.problems.iter().cloned());
        setups.push(s.setup_s);
        runs.push(s.run_s);
        bytes.push(s.payload_bytes() as f64);
        if started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    eprintln!("pkdbench: {} sessions, run_s {:?}", runs.len(), runs);
    let mut m = Metrics::default();
    m.set("run_s", "s", stats::median(&runs));
    m.set("setup_s", "s", stats::median(&setups));
    m.set("comm_mb", "MB", bytes_to_mb(stats::median(&bytes) as usize));
    m.set("peak_rss_mb", "MB", sys::peak_rss_mb());
    Outcome::new(m, attempted, failed, problems)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_medians_are_summed() {
        let reps = vec![
            vec![1.0, 2.0, 3.0],
            vec![1.2, 9.0, 3.1],
            vec![0.9, 2.1, 2.9],
        ];
        // Medians per round: 1.0, 2.1, 3.0.
        assert!((round_median_sum(&reps) - 6.1).abs() < 1e-12);
        // A short repetition limits the rounds compared.
        assert_eq!(round_median_sum(&[vec![1.0, 2.0], vec![3.0]]), 2.0);
    }
}

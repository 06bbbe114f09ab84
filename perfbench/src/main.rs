//! `perfbench` — the repository benchmark.
//!
//! Runs one named workload with a given seed, checks every output, and
//! prints one JSON result line: the end-to-end metrics (untraced run)
//! or the per-layer metrics (traced run). See `perfbench/NOTES.md` for
//! why each workload exists and which layer metric should move which
//! end-to-end metric on which workload.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_mixed --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads: `paper_sweep`, `serve_mixed`, `ingest_cold`.
//! The last stdout line is the result; a provenance line precedes it,
//! and the full report (checks, ladder steps, every metric, host
//! shape) is written to `.perfbench/` under the working directory,
//! with the span list of traced runs beside it.

mod ingest;
mod measure;
mod paper;
mod replay;
mod serving;
mod trace;

use measure::Report;
use poisongame::sim::jsonio::{self, Json};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use trace::Tracer;

/// Everything a workload needs to know about its run.
pub struct Ctx {
    /// Process start: set-up time is measured from here.
    pub started: Instant,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: Duration,
    pub tracer: Tracer,
    /// Where reports, spans and fixtures go (inside the working
    /// directory).
    pub out_dir: PathBuf,
    /// Hardware threads: the server's shard count and the load
    /// generator's thread budget.
    pub nproc: usize,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Host shape and run identity, recorded with every result so numbers
/// from different host shapes are never compared.
fn provenance(args: &Args, nproc: usize) -> Json {
    let mem_total = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|m| {
            m.lines()
                .find(|l| l.starts_with("MemTotal:"))
                .map(|l| l.trim_start_matches("MemTotal:").trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let run = |program: &str, argv: &[&str]| -> String {
        Command::new(program)
            .args(argv)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    Json::obj(vec![
        ("workload", Json::str(&args.workload)),
        ("seed", jsonio::big_u64_to_json(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::Num(nproc as f64)),
        ("mem_total", Json::str(&mem_total)),
        ("rustc", Json::str(&run("rustc", &["-V"]))),
        ("git_sha", Json::str(&run("git", &["rev-parse", "HEAD"]))),
        (
            "command_line",
            Json::Arr(std::env::args().map(|a| Json::str(&a)).collect()),
        ),
    ])
}

fn run_workload(ctx: &Ctx, workload: &str) -> Result<Report, String> {
    match workload {
        "paper_sweep" => paper::run(ctx),
        "serve_mixed" => serving::run(ctx),
        "ingest_cold" => ingest::run(ctx),
        other => Err(format!(
            "unknown workload `{other}` (paper_sweep, serve_mixed, ingest_cold)"
        )),
    }
}

fn finish(ctx: &Ctx, args: &Args, mut report: Report) -> Result<String, String> {
    report.metrics.set("peak_rss_mb", measure::peak_rss_mb()?);
    report.metrics.set(
        "error_rate",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    let correct = report.failed == 0 && report.checks.iter().all(|c| c.passed);
    for check in report.checks.iter().filter(|c| !c.passed) {
        eprintln!("perfbench: check `{}` FAILED: {}", check.name, check.detail);
    }

    let provenance = provenance(args, ctx.nproc);
    std::fs::create_dir_all(&ctx.out_dir)
        .map_err(|e| format!("creating {}: {e}", ctx.out_dir.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let mut all = Vec::new();
    for (name, unit) in measure::END_TO_END.iter().chain(measure::PER_LAYER) {
        if let Some(v) = report.metrics.get(name) {
            all.push((
                *name,
                Json::obj(vec![("value", Json::Num(v)), ("unit", Json::str(unit))]),
            ));
        }
    }
    let checks = report
        .checks
        .iter()
        .map(|c| {
            Json::obj(vec![
                ("name", Json::str(&c.name)),
                ("passed", Json::Bool(c.passed)),
                ("detail", Json::str(&c.detail)),
            ])
        })
        .collect();
    let mut doc = vec![
        ("provenance", provenance.clone()),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("checks", Json::Arr(checks)),
        ("metrics", Json::obj(all)),
    ];
    doc.extend(report.details.iter().map(|(k, v)| (*k, v.clone())));
    let report_path = ctx.out_dir.join(format!("{stem}.json"));
    std::fs::write(&report_path, Json::obj(doc).render() + "\n")
        .map_err(|e| format!("writing {}: {e}", report_path.display()))?;
    if ctx.tracer.is_on() {
        let spans_path = ctx.out_dir.join(format!("{stem}-spans.jsonl"));
        ctx.tracer
            .write_jsonl(&spans_path)
            .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
    }

    println!(
        "{}",
        Json::obj(vec![
            ("provenance", provenance),
            ("report", Json::str(&report_path.display().to_string())),
        ])
        .render()
    );
    Ok(Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", report.metrics.render(args.trace)?),
    ])
    .render())
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: usage error: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        started,
        seed: args.seed,
        seconds: Duration::from_secs_f64(args.seconds),
        tracer: Tracer::new(args.trace),
        out_dir: PathBuf::from(".perfbench"),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    match run_workload(&ctx, &args.workload).and_then(|report| finish(&ctx, &args, report)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

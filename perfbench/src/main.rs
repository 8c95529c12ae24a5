//! `perfbench` — run one benchmark workload and print its metrics.
//!
//! ```text
//! perfbench --workload regular|irregular|replay-mixed --seed N --seconds S --trace 0|1 [--out DIR]
//! perfbench --write-pins PATH
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer ones). Progress and diagnostics go to stderr.

use gcl_perfbench::jobs::{build_jobs, run_job, Checker, Ctx, Mix, DEFAULT_SEED};
use gcl_perfbench::pins::{Pin, Pins};
use gcl_perfbench::spans::Tracer;
use gcl_perfbench::{
    end_to_end, per_layer, result_line, run, span_dump, Options, Report, END_TO_END, PER_LAYER,
    PINS,
};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload regular|irregular|replay-mixed --seed N \
--seconds S --trace 0|1 [--out DIR]\n       perfbench --write-pins PATH";

enum Command {
    Bench(Options),
    WritePins(PathBuf),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut mix = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from(".bench_build/perfbench");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                mix = Some(Mix::parse(v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a nonnegative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                })
            }
            "--out" => out = PathBuf::from(value()?),
            "--write-pins" => return Ok(Command::WritePins(PathBuf::from(value()?))),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Command::Bench(Options {
        mix: mix.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    }))
}

/// Run every Table I job once on the pinned inputs and write their pins.
fn write_pins(path: &PathBuf) -> Result<(), String> {
    let names: Vec<&'static str> = gcl_workloads::all_workloads()
        .iter()
        .map(|w| w.name())
        .collect();
    let work = PathBuf::from(format!("{}.work", path.display()));
    let mut ctx = Ctx::new(Checker::new(Pins::default()), None, &work);
    let mut pins = Pins::default();
    let mut tracer = Tracer::new(false);
    let mut jobs = build_jobs(&names, DEFAULT_SEED);
    for (i, job) in jobs.iter_mut().enumerate() {
        // Unpinned, the checker only compares repeats, and there are none.
        job.pinned = false;
        let rec = run_job(job, &mut ctx, &mut tracer, i as u64);
        let stats = rec.outcome?;
        let pin = Pin::of(job.name, &stats);
        eprintln!(
            "{:5} cycles {:>8} warp_insts {:>8} stats_fnv 0x{:016x}",
            pin.job, pin.cycles, pin.warp_insts, pin.stats_fnv
        );
        pins.set(pin);
    }
    let _ = std::fs::remove_dir_all(&work);
    std::fs::write(path, pins.render()).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn summarize(report: &Report, opts: &Options) {
    let passes = report.passes.len();
    let traced = report.passes.iter().filter(|p| p.traced).count();
    eprintln!(
        "{} seed {}: {passes} passes ({traced} traced), set-up median {:.6} s of {}",
        opts.mix.name(),
        opts.seed,
        gcl_perfbench::median(report.setup_s.clone()),
        report.setup_s.len()
    );
    if opts.seed != DEFAULT_SEED && opts.mix == Mix::Irregular {
        eprintln!(
            "seed {} picks the bfs/sssp source vertex; every other input is fixed inside \
             gcl-workloads, and bfs/sssp are checked by repeat equality instead of pins",
            opts.seed
        );
    }
    if let Some(first) = report.passes.first() {
        for (j, r) in first.records.iter().enumerate() {
            let walls: Vec<String> = report
                .passes
                .iter()
                .map(|p| format!("{:.3}", p.records[j].wall_s))
                .collect();
            let cycles = r.outcome.as_ref().map_or(0, |s| s.cycles);
            eprintln!(
                "  {:5} {cycles:>7} simulated cycles, host s per pass: {}",
                r.name,
                walls.join(" ")
            );
        }
    }
    let refs: Vec<String> = report
        .passes
        .iter()
        .map(|p| format!("{:.1}", gcl_perfbench::median(p.refs.clone()) * 1e3))
        .collect();
    eprintln!("  reference loop, median ms per pass: {}", refs.join(" "));
    for f in report.failures() {
        eprintln!("FAILED {f}");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(Command::Bench(o)) => o,
        Ok(Command::WritePins(path)) => {
            return match write_pins(&path) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&opts, opts.mix.job_names(), PINS) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    summarize(&report, &opts);
    let line = if opts.trace {
        let dump = opts
            .out
            .join(format!("spans-{}-seed{}.json", opts.mix.name(), opts.seed));
        if let Err(e) = std::fs::write(&dump, span_dump(&report, &opts).render_compact()) {
            eprintln!("perfbench: cannot write {}: {e}", dump.display());
            return ExitCode::FAILURE;
        }
        eprintln!("spans written to {}", dump.display());
        result_line(&report, PER_LAYER, &per_layer(&report))
    } else {
        match end_to_end(&report) {
            Ok(m) => result_line(&report, END_TO_END, &m),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    println!("{line}");
    ExitCode::SUCCESS
}

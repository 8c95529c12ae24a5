//! # gcl-perfbench — host-speed benchmark for the gcl simulator
//!
//! Runs a named workload (a list of Table I jobs) at full scale on
//! `GpuConfig::fermi()`, single-threaded, for a fixed number of seconds,
//! checks every result against the checked-in golden pins, and reports
//! end-to-end metrics (tracing off) or per-layer metrics (a separate run
//! with spans around each crate's public calls). See `README.md` beside
//! this crate for the metric definitions and why each workload exists.

pub mod jobs;
pub mod pins;
pub mod reference;
pub mod spans;

use gcl_exec::TraceStore;
use gcl_sim::LaunchStats;
use gcl_stats::Json;
use jobs::{build_jobs, capture_all, run_job, Capture, Checker, Ctx, JobRecord, Mix};
use pins::Pins;
use reference::Reference;
use spans::Tracer;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// The checked-in golden pins.
pub const PINS: &str = include_str!("../pins.json");

/// End-to-end metrics (reported with tracing off): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("norm_wall_s", "s"),
    ("norm_sim_cycles_per_s", "1/s"),
    ("norm_warp_insts_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (reported by the traced run): name and unit. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("sim_cycles_per_s", "1/s"),
    ("warp_insts_per_s", "1/s"),
    ("bench.ref_ms", "ms"),
    ("bench.setup_raw_s", "s"),
    ("failed_frac", "frac"),
    ("sim.launch_s", "s"),
    ("sim.ns_per_warp_inst", "ns"),
    ("sim.ns_per_cycle", "ns"),
    ("sim.launches", "count"),
    ("sim.gpu_new_ms", "ms"),
    ("sim.replay_s", "s"),
    ("sim.replay_ns_per_record", "ns"),
    ("sim.trace_overhead_frac", "frac"),
    ("trace.decode_s", "s"),
    ("trace.decode_mib_per_s", "MiB/s"),
    ("trace.capture_s", "s"),
    ("trace.bytes", "bytes"),
    ("trace.records", "count"),
    ("trace.replay_over_capture", "ratio"),
    ("trace.replay_over_capture.2mm", "ratio"),
    ("trace.replay_over_capture.spmv", "ratio"),
    ("trace.replay_over_capture.mis", "ratio"),
    ("workloads.host_s", "s"),
    ("workloads.kernels_ms", "ms"),
    ("analyze.static_ms", "ms"),
    ("exec.fingerprint_ms", "ms"),
    ("exec.checksum_ms", "ms"),
    ("exec.cache_store_ms", "ms"),
    ("exec.cache_load_ms", "ms"),
    ("exec.cache_entry_kib", "KiB"),
    ("bench.unaccounted_frac", "frac"),
    ("sim.cycles", "cycles"),
    ("sim.warp_insts", "count"),
    ("sim.ipc", "inst/cycle"),
    ("sim.ctas", "count"),
    ("sim.n_load_frac", "frac"),
    ("sim.unit_busy_sp_frac", "frac"),
    ("sim.unit_busy_sfu_frac", "frac"),
    ("sim.unit_busy_ldst_frac", "frac"),
    ("sim.turnaround_d_mean", "cycles"),
    ("sim.turnaround_n_mean", "cycles"),
    ("mem.l1_hits", "count"),
    ("mem.l1_misses", "count"),
    ("mem.l1_rsrv_fail_tags", "count"),
    ("mem.l1_rsrv_fail_mshr", "count"),
    ("mem.l1_rsrv_fail_icnt", "count"),
    ("mem.l2_queries", "count"),
    ("mem.l2_hits", "count"),
    ("mem.dram_serviced", "count"),
    ("mem.dram_mean_latency", "cycles"),
];

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which job list the run's metrics are reported under.
    pub mix: Mix,
    /// Input seed ([`jobs::DEFAULT_SEED`] runs the pinned inputs).
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    /// Traced run: alternate untraced and traced passes and report the
    /// per-layer metrics.
    pub trace: bool,
    /// Directory for scratch files (removed at the end) and the span dump.
    pub out: PathBuf,
}

/// Set-up repetitions at the start of a run. Replay set-up captures every
/// job, so it repeats fewer times.
fn setup_repeats(mix: Mix) -> usize {
    if mix.replays() {
        3
    } else {
        25
    }
}

/// Set-up repetitions after each pass, for workloads whose set-up does not
/// capture. A process tends to keep one speed for a short set-up (about 30
/// or about 50 µs for `regular`, which one is chance) but can change it
/// after a pass, so sampling set-up across the run steadies its median.
const SETUP_REPEATS_PER_PASS: usize = 10;

/// Passes over the job list always run at least this often, so every job
/// of a run is repeated and checked for determinism.
const MIN_PASSES: usize = 2;

/// Host seconds of the reference loop on a host of nominal speed, a round
/// figure near its time on a 2.0 GHz Xeon. The `norm_*` metrics and
/// `setup_s` are scaled to it.
pub const REF_NOMINAL_S: f64 = 0.04;

/// One pass over the job list.
#[derive(Debug)]
pub struct Pass {
    /// Whether spans were recorded.
    pub traced: bool,
    /// One record per job, in job order (span job ids index this).
    pub records: Vec<JobRecord>,
    /// Reference-loop seconds timed before each job and after the last.
    pub refs: Vec<f64>,
    /// The pass's spans (empty when untraced).
    pub tracer: Tracer,
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Report {
    /// Host seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Reference-loop seconds timed just before each set-up repetition.
    pub setup_ref_s: Vec<f64>,
    /// KiB the reference loop's table added to resident memory.
    pub ref_kib: u64,
    /// Captures of each set-up repetition (replay workloads only).
    pub captures: Vec<Vec<Capture>>,
    /// Measured passes, in run order.
    pub passes: Vec<Pass>,
}

impl Report {
    /// Jobs attempted: every job of every pass plus every capture.
    pub fn attempted(&self) -> u64 {
        let jobs: usize = self.passes.iter().map(|p| p.records.len()).sum();
        let caps: usize = self.captures.iter().map(Vec::len).sum();
        (jobs + caps) as u64
    }

    /// Jobs (and captures) that errored or failed a pin or round-trip check.
    pub fn failures(&self) -> Vec<String> {
        let jobs = self.passes.iter().flat_map(|p| &p.records);
        let jobs = jobs.filter_map(|r| r.outcome.as_ref().err());
        let caps = self.captures.iter().flatten();
        let caps = caps.filter_map(|c| c.outcome.as_ref().err());
        jobs.chain(caps).cloned().collect()
    }
}

/// Run the benchmark: set up, then passes over the jobs named `names`
/// until `opts.seconds` is spent. `pins` is the text of the pin file.
///
/// A set-up parses the pins, builds the jobs and, for replay, captures
/// their traces; it is repeated at the start and, without capture, after
/// every pass. The scratch directory and the reference loop's table are
/// made once, untimed: on ext4 a directory operation takes 20-70 µs
/// depending on the directory's history, which would swamp the rest of
/// `regular`'s set-up. The reference loop is timed before every set-up at
/// the start, before every job of a pass and after a pass's last job.
///
/// # Errors
///
/// A message when the pins do not parse, the scratch directory cannot be
/// created, or this process's memory cannot be read.
pub fn run(opts: &Options, names: &[&'static str], pins: &str) -> Result<Report, String> {
    let work = opts.out.join(format!("work-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let traces = opts
        .mix
        .replays()
        .then(|| TraceStore::new(work.join("traces")));
    let rss_before = status_kib("VmRSS")?;
    let reference = Reference::new();
    let ref_kib = status_kib("VmRSS")?.saturating_sub(rss_before);
    let mut setup_s = Vec::new();
    let mut setup_ref_s = Vec::new();
    let mut captures = Vec::new();
    let mut jobs = Vec::new();
    let mut checker = Checker::new(Pins::default());
    for _ in 0..setup_repeats(opts.mix) {
        setup_ref_s.push(reference.time());
        let t0 = Instant::now();
        (checker, jobs) = prepare(pins, names, opts.seed)?;
        if let Some(store) = &traces {
            captures.push(capture_all(&jobs, store, &mut checker));
        }
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut ctx = Ctx::new(checker, traces, &work);

    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let traced = opts.trace && passes.len() % 2 == 1;
        let mut tracer = Tracer::new(traced);
        let mut refs = Vec::with_capacity(jobs.len() + 1);
        let mut records = Vec::with_capacity(jobs.len());
        for (i, job) in jobs.iter().enumerate() {
            refs.push(reference.time());
            records.push(run_job(job, &mut ctx, &mut tracer, i as u64));
        }
        refs.push(reference.time());
        let last_ref = refs[jobs.len()];
        passes.push(Pass {
            traced,
            records,
            refs,
            tracer,
        });
        if !opts.mix.replays() {
            for _ in 0..SETUP_REPEATS_PER_PASS {
                let t0 = Instant::now();
                black_box(prepare(pins, names, opts.seed)?);
                setup_s.push(t0.elapsed().as_secs_f64());
                setup_ref_s.push(last_ref);
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        let per_pass = elapsed / passes.len() as f64;
        if passes.len() >= MIN_PASSES && elapsed + per_pass > opts.seconds {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&work);
    Ok(Report {
        setup_s,
        setup_ref_s,
        ref_kib,
        captures,
        passes,
    })
}

/// The part of a set-up that every workload repeats: parse the pins and
/// build the jobs.
fn prepare(
    pins: &str,
    names: &[&'static str],
    seed: u64,
) -> Result<(Checker, Vec<jobs::Job>), String> {
    Ok((Checker::new(Pins::parse(pins)?), build_jobs(names, seed)))
}

/// Median of `xs` (0 for none).
pub fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 && a.is_finite() {
        a / b
    } else {
        0.0
    }
}

/// Sum over jobs of each job's median wall time across the chosen passes:
/// the host time of one pass, robust to a single disturbed job.
fn pass_wall(report: &Report, traced: bool) -> f64 {
    sum_job_medians(report, traced, |_, _| 1.0)
}

/// [`pass_wall`] with each job's time scaled to a host of nominal speed:
/// multiplied by [`REF_NOMINAL_S`] over the mean of the reference times
/// just before and just after the job.
fn norm_pass_wall(report: &Report) -> f64 {
    sum_job_medians(report, false, |p, j| {
        REF_NOMINAL_S / ((p.refs[j] + p.refs[j + 1]) / 2.0)
    })
}

/// Sum over jobs of the median across the chosen passes of the job's wall
/// time times `scale(pass, job)`.
fn sum_job_medians(report: &Report, traced: bool, scale: impl Fn(&Pass, usize) -> f64) -> f64 {
    let passes: Vec<&Pass> = report
        .passes
        .iter()
        .filter(|p| p.traced == traced)
        .collect();
    let n_jobs = passes.first().map_or(0, |p| p.records.len());
    (0..n_jobs)
        .map(|j| {
            median(
                passes
                    .iter()
                    .map(|p| p.records[j].wall_s * scale(p, j))
                    .collect(),
            )
        })
        .sum()
}

/// Median reference-loop time of the run, in seconds.
fn ref_s(report: &Report) -> f64 {
    median(
        report
            .passes
            .iter()
            .flat_map(|p| p.refs.iter().copied())
            .collect(),
    )
}

/// The statistics of every job, merged, from the first pass in which all
/// jobs succeeded (every pass simulates the same thing).
fn merged_stats(report: &Report) -> Option<LaunchStats> {
    let pass = report
        .passes
        .iter()
        .find(|p| p.records.iter().all(|r| r.outcome.is_ok()))?;
    let mut all = LaunchStats::default();
    for r in &pass.records {
        all.merge(r.outcome.as_ref().expect("checked above"));
    }
    Some(all)
}

/// A memory figure of this process from `/proc/self/status`, in KiB:
/// `VmHWM` (peak resident) or `VmRSS` (resident now).
///
/// # Errors
///
/// When `/proc/self/status` has no such line.
pub(crate) fn status_kib(field: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no {field} in /proc/self/status"))
}

/// `<prefix>wall_s`, `<prefix>sim_cycles_per_s` and
/// `<prefix>warp_insts_per_s` for a pass taking `wall` seconds.
fn speed(report: &Report, prefix: &str, wall: f64) -> [(String, f64); 3] {
    let stats = merged_stats(report).unwrap_or_default();
    [
        (format!("{prefix}wall_s"), wall),
        (
            format!("{prefix}sim_cycles_per_s"),
            ratio(stats.cycles as f64, wall),
        ),
        (
            format!("{prefix}warp_insts_per_s"),
            ratio(stats.sm.warp_insts as f64, wall),
        ),
    ]
}

/// The end-to-end metrics, from the untraced passes.
///
/// # Errors
///
/// When peak memory cannot be read.
pub fn end_to_end(report: &Report) -> Result<BTreeMap<String, f64>, String> {
    let mut m = BTreeMap::from(speed(report, "norm_", norm_pass_wall(report)));
    let setups = report.setup_s.iter().zip(&report.setup_ref_s);
    let setup_s = median(setups.map(|(s, r)| s * REF_NOMINAL_S / r).collect());
    m.insert("setup_s".into(), setup_s);
    let rss_kib = status_kib("VmHWM")?.saturating_sub(report.ref_kib);
    m.insert("peak_rss_mib".into(), rss_kib as f64 / 1024.0);
    Ok(m)
}

/// Per-job median capture seconds (job order), bytes and records.
fn capture_summary(report: &Report) -> Vec<(&'static str, f64, u64, u64)> {
    let Some(last) = report.captures.last() else {
        return Vec::new();
    };
    last.iter()
        .enumerate()
        .map(|(j, c)| {
            let secs = median(report.captures.iter().map(|r| r[j].secs).collect());
            (c.name, secs, c.bytes, c.records)
        })
        .collect()
}

/// Span-derived metrics of one traced pass.
fn traced_pass(pass: &Pass, trace_bytes: u64) -> BTreeMap<&'static str, f64> {
    let totals = pass.tracer.totals();
    let selfs = pass.tracer.self_times();
    let total = |n: &str| totals.get(n).copied().unwrap_or(0.0);
    let ok: Vec<&LaunchStats> = pass
        .records
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok())
        .collect();
    let cycles: u64 = ok.iter().map(|s| s.cycles).sum();
    let warps: u64 = ok.iter().map(|s| s.sm.warp_insts).sum();
    let launch_s = total("sim.launch") + total("sim.replay");
    let launches = pass
        .tracer
        .spans()
        .iter()
        .filter(|s| matches!(s.name, "sim.launch" | "sim.replay"))
        .count();
    let replay_s = total("sim.replay");
    let replayed_records = if replay_s > 0.0 { warps } else { 0 };
    let entry_kib: Vec<f64> = pass
        .records
        .iter()
        .map(|r| r.cache_entry_bytes as f64 / 1024.0)
        .collect();
    BTreeMap::from([
        ("sim.launch_s", launch_s),
        ("sim.ns_per_warp_inst", ratio(launch_s * 1e9, warps as f64)),
        ("sim.ns_per_cycle", ratio(launch_s * 1e9, cycles as f64)),
        ("sim.launches", launches as f64),
        ("sim.gpu_new_ms", total("sim.gpu_new") * 1e3),
        ("sim.replay_s", replay_s),
        (
            "sim.replay_ns_per_record",
            ratio(replay_s * 1e9, replayed_records as f64),
        ),
        ("trace.decode_s", total("trace.decode")),
        (
            "trace.decode_mib_per_s",
            ratio(trace_bytes as f64 / (1 << 20) as f64, total("trace.decode")),
        ),
        (
            "workloads.host_s",
            selfs.get("workloads.run").copied().unwrap_or(0.0),
        ),
        ("workloads.kernels_ms", total("workloads.kernels") * 1e3),
        ("analyze.static_ms", total("analyze.static") * 1e3),
        ("exec.fingerprint_ms", total("exec.fingerprint") * 1e3),
        ("exec.checksum_ms", total("exec.checksum") * 1e3),
        ("exec.cache_store_ms", total("exec.cache_store") * 1e3),
        ("exec.cache_load_ms", total("exec.cache_load") * 1e3),
        ("exec.cache_entry_kib", median(entry_kib)),
        (
            "bench.unaccounted_frac",
            ratio(selfs.get("job").copied().unwrap_or(0.0), total("job")),
        ),
    ])
}

/// Host seconds of job `j`'s replay step in `pass`: decode, GPU and launches.
fn replay_secs(pass: &Pass, j: usize) -> f64 {
    let spans = pass.tracer.spans().iter();
    let spans = spans.filter(|s| s.name == "trace.replay" && s.job == j as u64);
    spans.map(spans::Span::secs).sum()
}

/// Simulated counters of the merged statistics: exact and deterministic.
fn simulated(stats: &LaunchStats) -> Vec<(&'static str, f64)> {
    use gcl_mem::AccessOutcome;
    let p = stats.profiler();
    let busy = |i: usize| ratio(stats.sm.unit_busy[i] as f64, stats.sm.cycles as f64);
    let finite = |v: f64| if v.is_finite() { v } else { 0.0 };
    vec![
        ("sim.cycles", stats.cycles as f64),
        ("sim.warp_insts", stats.sm.warp_insts as f64),
        (
            "sim.ipc",
            ratio(stats.sm.warp_insts as f64, stats.cycles as f64),
        ),
        ("sim.ctas", stats.sm.ctas_retired as f64),
        ("sim.n_load_frac", finite(stats.nondet_load_fraction())),
        ("sim.unit_busy_sp_frac", busy(0)),
        ("sim.unit_busy_sfu_frac", busy(1)),
        ("sim.unit_busy_ldst_frac", busy(2)),
        (
            "sim.turnaround_d_mean",
            finite(stats.class_agg[0].turnaround.mean()),
        ),
        (
            "sim.turnaround_n_mean",
            finite(stats.class_agg[1].turnaround.mean()),
        ),
        ("mem.l1_hits", p.l1_global_load_hit as f64),
        ("mem.l1_misses", p.l1_global_load_miss as f64),
        (
            "mem.l1_rsrv_fail_tags",
            stats.l1.outcome_total(AccessOutcome::ReservationFailTags) as f64,
        ),
        (
            "mem.l1_rsrv_fail_mshr",
            stats.l1.outcome_total(AccessOutcome::ReservationFailMshr) as f64,
        ),
        (
            "mem.l1_rsrv_fail_icnt",
            stats.l1.outcome_total(AccessOutcome::ReservationFailIcnt) as f64,
        ),
        ("mem.l2_queries", p.l2_read_sector_queries as f64),
        ("mem.l2_hits", p.l2_read_hit_sectors as f64),
        ("mem.dram_serviced", stats.dram_serviced as f64),
        ("mem.dram_mean_latency", finite(stats.dram_mean_latency())),
    ]
}

/// The per-layer metrics: medians over the traced passes, capture figures
/// from set-up, and the simulated counters.
pub fn per_layer(report: &Report) -> BTreeMap<String, f64> {
    let caps = capture_summary(report);
    let trace_bytes: u64 = caps.iter().map(|c| c.2).sum();
    let passes: Vec<&Pass> = report.passes.iter().filter(|p| p.traced).collect();
    let traced: Vec<_> = passes.iter().map(|p| traced_pass(p, trace_bytes)).collect();
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    for key in traced.first().map(|t| t.keys()).into_iter().flatten() {
        let vals = traced.iter().map(|t| t[key]).collect();
        m.insert(key.to_string(), median(vals));
    }
    let untraced_wall = pass_wall(report, false);
    m.extend(speed(report, "", untraced_wall));
    m.insert("bench.ref_ms".into(), ref_s(report) * 1e3);
    m.insert("bench.setup_raw_s".into(), median(report.setup_s.clone()));
    m.insert(
        "sim.trace_overhead_frac".into(),
        ratio(pass_wall(report, true) - untraced_wall, untraced_wall),
    );
    let capture_s: f64 = caps.iter().map(|c| c.1).sum();
    m.insert("trace.capture_s".into(), capture_s);
    m.insert("trace.bytes".into(), trace_bytes as f64);
    m.insert(
        "trace.records".into(),
        caps.iter().map(|c| c.3).sum::<u64>() as f64,
    );
    let mut replay_total = 0.0;
    for (j, (name, secs, _, _)) in caps.iter().enumerate() {
        let replay = median(passes.iter().map(|p| replay_secs(p, j)).collect());
        replay_total += replay;
        m.insert(
            format!("trace.replay_over_capture.{name}"),
            ratio(replay, *secs),
        );
    }
    m.insert(
        "trace.replay_over_capture".into(),
        ratio(replay_total, capture_s),
    );
    let attempted = report.attempted();
    m.insert(
        "failed_frac".into(),
        ratio(report.failures().len() as f64, attempted as f64),
    );
    if let Some(stats) = merged_stats(report) {
        for (k, v) in simulated(&stats) {
            m.insert(k.into(), v);
        }
    }
    m
}

/// The result line: `correct`, `attempted`, `failed` and the metrics listed
/// in `names`, each with its unit (0 for a metric the run has no value for).
pub fn result_line(
    report: &Report,
    names: &[(&str, &str)],
    values: &BTreeMap<String, f64>,
) -> String {
    let failed = report.failures().len() as u64;
    let metrics = names
        .iter()
        .map(|&(name, unit)| {
            // `+ 0.0` turns the -0.0 of an empty float sum into 0.0.
            let v = values.get(name).copied().unwrap_or(0.0) + 0.0;
            (
                name.to_string(),
                Json::obj(vec![
                    ("value", Json::Float(if v.is_finite() { v } else { 0.0 })),
                    ("unit", Json::Str(unit.to_string())),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::UInt(report.attempted())),
        ("failed", Json::UInt(failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render_compact()
}

/// The traced passes' spans and self times, for writing out after the run.
pub fn span_dump(report: &Report, opts: &Options) -> Json {
    let mut spans = Vec::new();
    let mut selfs: BTreeMap<&str, f64> = BTreeMap::new();
    for (i, p) in report.passes.iter().enumerate().filter(|(_, p)| p.traced) {
        spans.extend(p.tracer.to_json(i));
        for (k, v) in p.tracer.self_times() {
            *selfs.entry(k).or_insert(0.0) += v;
        }
    }
    let jobs = report.passes.first().map_or(Vec::new(), |p| {
        p.records
            .iter()
            .map(|r| Json::Str(r.name.to_string()))
            .collect()
    });
    Json::obj(vec![
        ("workload", Json::Str(opts.mix.name().to_string())),
        ("seed", Json::UInt(opts.seed)),
        ("jobs", Json::Arr(jobs)),
        (
            "self_s",
            Json::Obj(
                selfs
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Json::Float(v)))
                    .collect(),
            ),
        ),
        ("spans", Json::Arr(spans)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use jobs::DEFAULT_SEED;

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("gcl-perfbench-{tag}-{}", std::process::id()))
    }

    fn opts(mix: Mix, trace: bool, tag: &str) -> Options {
        Options {
            mix,
            seed: DEFAULT_SEED,
            seconds: 0.0,
            trace,
            out: scratch(tag),
        }
    }

    fn failed_frac(report: &Report) -> f64 {
        per_layer(report)["failed_frac"]
    }

    #[test]
    fn norm_wall_scales_each_job_by_the_references_around_it() {
        let record = |wall_s| JobRecord {
            name: "x",
            wall_s,
            outcome: Err("unused".into()),
            cache_entry_bytes: 0,
        };
        let pass = |refs: [f64; 3]| Pass {
            traced: false,
            records: vec![record(1.0), record(2.0)],
            refs: refs.map(|r| r * REF_NOMINAL_S).to_vec(),
            tracer: Tracer::new(false),
        };
        let report = Report {
            setup_s: Vec::new(),
            setup_ref_s: Vec::new(),
            ref_kib: 0,
            captures: Vec::new(),
            passes: vec![pass([1.0, 1.0, 1.0]), pass([2.0, 2.0, 4.0])],
        };
        assert_eq!(pass_wall(&report, false), 3.0);
        // Job 0: median of 1/1 and 1/2; job 1: median of 2/1 and 2/3.
        let want = (1.0 + 0.5) / 2.0 + (2.0 + 2.0 / 3.0) / 2.0;
        assert!((norm_pass_wall(&report) - want).abs() < 1e-12);
    }

    #[test]
    fn corrupted_pin_raises_failed_frac() {
        let o = opts(Mix::Regular, false, "pins");
        let good = run(&o, &["dwt"], PINS).unwrap();
        assert!(good.failures().is_empty(), "{:?}", good.failures());
        assert_eq!(failed_frac(&good), 0.0);

        let mut bad = Pins::parse(PINS).unwrap();
        let mut pin = bad.get("dwt").unwrap().clone();
        pin.stats_fnv ^= 1;
        bad.set(pin);
        let report = run(&o, &["dwt"], &bad.render()).unwrap();
        assert_eq!(report.failures().len(), report.attempted() as usize);
        assert!(report.failures()[0].starts_with("dwt: pin mismatch: stats_fnv expected"));
        assert_eq!(failed_frac(&report), 1.0);
        assert!(result_line(&report, END_TO_END, &BTreeMap::new()).contains("\"correct\":false"));
        let _ = std::fs::remove_dir_all(scratch("pins"));
    }

    #[test]
    fn traced_replay_reports_every_per_layer_metric() {
        let o = opts(Mix::ReplayMixed, true, "replay");
        let report = run(&o, &["dwt"], PINS).unwrap();
        assert!(report.failures().is_empty(), "{:?}", report.failures());
        let m = per_layer(&report);
        let mut known: Vec<&str> = PER_LAYER.iter().map(|p| p.0).collect();
        // dwt stands in for the replay jobs, so the per-job ratio is its own.
        known.push("trace.replay_over_capture.dwt");
        for name in m.keys() {
            assert!(known.contains(&name.as_str()), "unlisted metric {name}");
        }
        for name in [
            "trace.replay_over_capture.dwt",
            "sim.replay_s",
            "trace.decode_s",
            "trace.capture_s",
            "trace.bytes",
        ] {
            assert!(m[name] > 0.0, "{name} is {}", m[name]);
        }
        assert_eq!(
            m["sim.cycles"],
            Pins::parse(PINS).unwrap().get("dwt").unwrap().cycles as f64
        );
        let _ = std::fs::remove_dir_all(scratch("replay"));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = Json::parse(text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |xs: &[(&str, &str)]| -> Vec<(String, String)> {
            xs.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        let own: Vec<String> = Mix::ALL.iter().map(|m| m.name().to_string()).collect();
        assert_eq!(workloads, own);
    }
}

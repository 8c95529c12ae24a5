//! The benchmark's workloads and one job's steps.
//!
//! A job is one Table I benchmark run end to end on a fresh `Gpu` (cold
//! caches; L2/DRAM stay warm across that job's own launches): fingerprint,
//! kernels, static analysis, run (or replay), pin check, then a result-cache
//! store and checked load in a fresh directory. Each step is one call into
//! one crate's public API, wrapped in a span when tracing.

use crate::pins::{Pin, Pins};
use crate::spans::{LaunchClock, Tracer};
use gcl_exec::{JobSpec, ResultCache, TraceStore};
use gcl_sim::{kernel_fingerprint, Gpu, GpuConfig, LaunchStats};
use gcl_workloads::graph::Csr;
use gcl_workloads::graph_apps::{Bfs, Sssp};
use gcl_workloads::Workload;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The seed that runs the compiled-in inputs the pins cover.
pub const DEFAULT_SEED: u64 = 0;

/// A named set of jobs, each chosen to stress a different part of the
/// simulator (see the benchmark's README).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Linear/Image apps with at most 50% N loads: issue-bound.
    Regular,
    /// spmv and the graph apps, 81-98% N loads: memory-bound, many launches.
    Irregular,
    /// 2mm, spmv and mis captured in set-up and replayed when measured.
    ReplayMixed,
}

impl Mix {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Mix; 3] = [Mix::Regular, Mix::Irregular, Mix::ReplayMixed];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Mix::Regular => "regular",
            Mix::Irregular => "irregular",
            Mix::ReplayMixed => "replay-mixed",
        }
    }

    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Mix> {
        Mix::ALL.into_iter().find(|m| m.name() == s)
    }

    /// The jobs it runs, in Table I order.
    pub fn job_names(self) -> &'static [&'static str] {
        match self {
            Mix::Regular => &[
                "2mm", "gaus", "grm", "lu", "htw", "mriq", "dwt", "bpr", "srad",
            ],
            Mix::Irregular => &["spmv", "bfs", "sssp", "ccl", "mst", "mis"],
            Mix::ReplayMixed => &["2mm", "spmv", "mis"],
        }
    }

    /// Whether the measured phase replays captured traces.
    pub fn replays(self) -> bool {
        self == Mix::ReplayMixed
    }
}

/// One job: the spec the exec layer sees and the workload instance that
/// runs (which differs from the spec's default only in bfs/sssp's
/// `source` under a non-default seed).
pub struct Job {
    /// Table I name.
    pub name: &'static str,
    /// Full-scale spec on `GpuConfig::fermi()`.
    pub spec: JobSpec,
    /// The instance `Workload::run` is called on.
    pub workload: Box<dyn Workload>,
    /// Whether the job runs the compiled-in inputs, so the pins apply.
    pub pinned: bool,
}

/// Generator seeds of the bfs and sssp graphs. They mirror the private
/// constants inside gcl-workloads, so that a seeded source vertex can be
/// checked to have out-edges.
const BFS_GRAPH_SEED: u64 = 0xBF5;
const SSSP_GRAPH_SEED: u64 = 0x555A;

/// A vertex with nonzero out-degree, drawn from `rng`.
pub(crate) fn pick_source(csr: &Csr, rng: &mut gcl_rng::Rng) -> u32 {
    loop {
        let v = rng.usize_below(csr.n());
        if !csr.neighbors(v).is_empty() {
            return u32::try_from(v).expect("graph vertex ids fit in u32");
        }
    }
}

/// Build the jobs of `names` for `seed`. Only the source vertex of bfs and
/// sssp depends on the seed; every other input is fixed inside
/// gcl-workloads. The bfs/sssp graphs are generated here, whatever the
/// seed, to check that the source has out-edges.
pub fn build_jobs(names: &[&'static str], seed: u64) -> Vec<Job> {
    let mut rng = gcl_rng::Rng::new(seed);
    let mut source = |default: u32, g: Csr| {
        let v = if seed == DEFAULT_SEED {
            default
        } else {
            pick_source(&g, &mut rng)
        };
        assert!(
            !g.neighbors(v as usize).is_empty(),
            "source vertex {v} has no out-edges"
        );
        v
    };
    names
        .iter()
        .map(|&name| {
            let workload: Box<dyn Workload> = match name {
                "bfs" => {
                    let b = Bfs::default();
                    let g = Csr::rmat(b.scale, b.edge_factor, BFS_GRAPH_SEED);
                    Box::new(Bfs {
                        source: source(b.source, g),
                        ..b
                    })
                }
                "sssp" => {
                    let s = Sssp::default();
                    let g = Csr::rmat(s.scale, s.edge_factor, SSSP_GRAPH_SEED);
                    Box::new(Sssp {
                        source: source(s.source, g),
                        ..s
                    })
                }
                _ => gcl_workloads::all_workloads()
                    .into_iter()
                    .find(|w| w.name() == name)
                    .expect("job names are Table I names"),
            };
            Job {
                name,
                spec: JobSpec::new(name, false, GpuConfig::fermi()),
                workload,
                pinned: seed == DEFAULT_SEED || !matches!(name, "bfs" | "sssp"),
            }
        })
        .collect()
}

/// What one job produced.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Table I name.
    pub name: &'static str,
    /// Host seconds the whole job took.
    pub wall_s: f64,
    /// The job's statistics, or why it failed (error, pin or round trip).
    pub outcome: Result<LaunchStats, String>,
    /// Size of the job's result-cache entry in bytes.
    pub cache_entry_bytes: u64,
}

/// The result checks shared by every pass: pins for pinned jobs, and for
/// the rest, equality with the job's first result (a run is deterministic).
#[derive(Debug)]
pub struct Checker {
    pins: Pins,
    first: BTreeMap<&'static str, Pin>,
}

impl Checker {
    /// A checker over `pins`.
    pub fn new(pins: Pins) -> Checker {
        Checker {
            pins,
            first: BTreeMap::new(),
        }
    }

    /// Check one result; the error lists every differing field.
    ///
    /// # Errors
    ///
    /// The per-field diff against the pin or first repeat.
    pub fn check(&mut self, job: &Job, stats: &LaunchStats) -> Result<(), String> {
        let got = Pin::of(job.name, stats);
        let want = if job.pinned {
            self.pins.get(job.name).ok_or("no pin")?
        } else {
            self.first.entry(job.name).or_insert_with(|| got.clone())
        };
        let diff = got.diff(want);
        if diff.is_empty() {
            Ok(())
        } else {
            let what = if job.pinned { "pin" } else { "first repeat" };
            Err(format!("{what} mismatch: {}", diff.join("; ")))
        }
    }
}

/// Per-run state the jobs share.
#[derive(Debug)]
pub struct Ctx {
    checker: Checker,
    /// Where captured traces live (replay workloads only).
    traces: Option<TraceStore>,
    work: PathBuf,
    dirs: u64,
}

impl Ctx {
    /// A context creating its scratch directories under `work`.
    pub fn new(checker: Checker, traces: Option<TraceStore>, work: &Path) -> Ctx {
        Ctx {
            checker,
            traces,
            work: work.to_path_buf(),
            dirs: 0,
        }
    }

    fn fresh_cache(&mut self) -> ResultCache {
        self.dirs += 1;
        ResultCache::new(self.work.join(format!("cache-{}", self.dirs)))
    }
}

/// Run one job, timing it and (when `tr` is on) each of its steps.
pub fn run_job(job: &Job, ctx: &mut Ctx, tr: &mut Tracer, id: u64) -> JobRecord {
    let t0 = Instant::now();
    tr.begin_job(id);
    let steps = job_steps(job, ctx, tr);
    tr.end_job();
    let wall_s = t0.elapsed().as_secs_f64();
    let (outcome, cache_entry_bytes) = match steps {
        Ok((stats, bytes)) => (Ok(stats), bytes),
        Err(e) => (Err(format!("{}: {e}", job.name)), 0),
    };
    JobRecord {
        name: job.name,
        wall_s,
        outcome,
        cache_entry_bytes,
    }
}

fn job_steps(job: &Job, ctx: &mut Ctx, tr: &mut Tracer) -> Result<(LaunchStats, u64), String> {
    let s = tr.begin("exec.fingerprint");
    let fp = job.spec.fingerprint().map_err(|e| e.to_string())?;
    tr.end(s);

    let s = tr.begin("workloads.kernels");
    let kernels = job.workload.kernels();
    tr.end(s);

    let s = tr.begin("analyze.static");
    for k in &kernels {
        black_box(gcl_core::classify(k));
        black_box(gcl_analyze::analyze(k));
        black_box(gcl_analyze::critical_loads(k));
    }
    tr.end(s);

    let run_start = Instant::now();
    let stats = match (&ctx.traces, tr.on()) {
        (None, _) => execute(job, tr)?,
        (Some(store), false) => store.replay(&job.spec).map_err(|e| e.to_string())?,
        (Some(store), true) => replay_direct(job, store, &fp, &kernels, tr)?,
    };
    let run_ms = run_start.elapsed().as_secs_f64() * 1e3;

    let s = tr.begin("exec.checksum");
    let checked = ctx.checker.check(job, &stats);
    tr.end(s);
    checked?;

    let cache = ctx.fresh_cache();
    let s = tr.begin("exec.cache_store");
    cache.store(&fp, &stats, run_ms)?;
    tr.end(s);
    let s = tr.begin("exec.cache_load");
    let back = cache
        .load_checked(&fp)
        .map_err(|e| format!("cache load failed: {e}"))?;
    tr.end(s);
    if back.stats != stats {
        return Err("cache round trip changed the stats".into());
    }
    let bytes = std::fs::metadata(cache.entry_path(fp.key()))
        .map_err(|e| format!("cache entry vanished: {e}"))?
        .len();
    Ok((stats, bytes))
}

fn execute(job: &Job, tr: &mut Tracer) -> Result<LaunchStats, String> {
    let s = tr.begin("sim.gpu_new");
    let mut gpu = Gpu::new(job.spec.cfg.clone()).map_err(|e| e.to_string())?;
    tr.end(s);
    let clock = tr.on().then(LaunchClock::default);
    if let Some(c) = &clock {
        gpu.set_trace_sink(Some(Box::new(c.clone())));
    }
    let s = tr.begin("workloads.run");
    let run = job.workload.run(&mut gpu);
    if let Some(c) = clock {
        for (start, end) in c.take() {
            tr.record("sim.launch", start, end);
        }
    }
    tr.end(s);
    Ok(run.map_err(|e| e.to_string())?.stats)
}

/// `TraceStore::replay`, unrolled into `read_trace` and one
/// `Gpu::launch_replay` per launch so that decode and replay get their own
/// spans.
fn replay_direct(
    job: &Job,
    store: &TraceStore,
    fp: &gcl_exec::SpecFingerprint,
    kernels: &[gcl_ptx::Kernel],
    tr: &mut Tracer,
) -> Result<LaunchStats, String> {
    let outer = tr.begin("trace.replay");
    let s = tr.begin("trace.decode");
    let trace = gcl_trace::read_trace(store.entry_path(fp.key())).map_err(|e| e.to_string())?;
    tr.end(s);
    if trace.config_fp != fp.config_fp {
        return Err("trace captured under another config".into());
    }
    let s = tr.begin("sim.gpu_new");
    let mut gpu = Gpu::new(job.spec.cfg.clone()).map_err(|e| e.to_string())?;
    tr.end(s);
    let mut merged = LaunchStats::default();
    for launch in &trace.launches {
        let kernel = kernels
            .iter()
            .find(|k| kernel_fingerprint(k) == launch.replay.kernel_fp)
            .ok_or("trace kernel matches no kernel of the workload")?;
        let s = tr.begin("sim.replay");
        let stats = gpu
            .launch_replay(kernel, &launch.replay)
            .map_err(|e| e.to_string())?;
        tr.end(s);
        merged.merge(&stats);
    }
    merged.name = job.spec.workload.clone();
    tr.end(outer);
    Ok(merged)
}

/// One capture of a replay job in set-up.
#[derive(Debug, Clone)]
pub struct Capture {
    /// Table I name.
    pub name: &'static str,
    /// Host seconds `TraceStore::capture` took.
    pub secs: f64,
    /// Container size in bytes.
    pub bytes: u64,
    /// Warp instructions recorded.
    pub records: u64,
    /// The execution statistics, or why capture or its pin check failed.
    pub outcome: Result<LaunchStats, String>,
}

/// Capture every job into `store`, checking each execution result.
pub(crate) fn capture_all(jobs: &[Job], store: &TraceStore, checker: &mut Checker) -> Vec<Capture> {
    jobs.iter()
        .map(|job| {
            let t0 = Instant::now();
            let got = store.capture(&job.spec);
            let secs = t0.elapsed().as_secs_f64();
            let (bytes, records, outcome) = match got {
                Ok((stats, sum)) => {
                    let checked = checker.check(job, &stats).map(|()| stats);
                    (sum.bytes, sum.records, checked)
                }
                Err(e) => (0, 0, Err(e.to_string())),
            };
            let outcome = outcome.map_err(|e| format!("{} capture: {e}", job.name));
            Capture {
                name: job.name,
                secs,
                bytes,
                records,
                outcome,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_keeps_compiled_in_sources() {
        let jobs = build_jobs(Mix::Irregular.job_names(), DEFAULT_SEED);
        assert!(jobs.iter().all(|j| j.pinned));
        let seeded = build_jobs(Mix::Irregular.job_names(), 17);
        let unpinned: Vec<_> = seeded
            .iter()
            .filter(|j| !j.pinned)
            .map(|j| j.name)
            .collect();
        assert_eq!(unpinned, ["bfs", "sssp"]);
    }

    #[test]
    fn seeded_sources_have_out_edges_and_repeat() {
        let b = Bfs::default();
        let g = Csr::rmat(b.scale, b.edge_factor, BFS_GRAPH_SEED);
        for seed in 1..50 {
            let v = pick_source(&g, &mut gcl_rng::Rng::new(seed));
            assert!(!g.neighbors(v as usize).is_empty());
            assert_eq!(v, pick_source(&g, &mut gcl_rng::Rng::new(seed)));
        }
    }

    #[test]
    fn names_round_trip() {
        for m in Mix::ALL {
            assert_eq!(Mix::parse(m.name()), Some(m));
        }
        assert_eq!(Mix::parse("hit"), None);
    }
}

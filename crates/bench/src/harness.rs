//! Shared harness: run every workload on a configured GPU and collect the
//! per-workload results every figure draws from.

use gcl_ptx::Kernel;
use gcl_sim::{BlockSummary, Gpu, GpuConfig, LaunchStats, SimError};
use gcl_workloads::{all_workloads, tiny_workloads, Category, Workload};

/// Everything one workload produced in one full run.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Workload name (Table I).
    pub name: &'static str,
    /// Application category.
    pub category: Category,
    /// Merged launch statistics.
    pub stats: LaunchStats,
    /// Total CTAs launched.
    pub total_ctas: u64,
    /// Threads per CTA.
    pub threads_per_cta: u32,
    /// Static classification counts over the workload's kernels (D, N).
    pub static_loads: (usize, usize),
    /// The distinct kernels the run launched — the subjects the static
    /// analyses (classification provenance, affine coalescing prediction)
    /// join against when a figure needs per-load static columns.
    pub kernels: Vec<Kernel>,
    /// Block-locality summary (Figures 10–11).
    pub blocks: BlockSummary,
    /// CTA-distance histogram (Figure 12).
    pub distance_hist: Vec<(u64, f64)>,
}

/// Input-size selection for a harness run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Default benchmark scale (used for the reported figures).
    Full,
    /// Tiny scale for tests and smoke runs.
    Tiny,
}

/// The outcome of attempting one workload end to end: either its results or
/// why it stopped (a rendered [`SimError`], or a panic message when the
/// workload crashed outright — worker panics are isolated per workload).
/// One failed benchmark never takes down a harness sweep.
#[derive(Debug)]
pub struct BenchRun {
    /// Workload name (Table I).
    pub name: &'static str,
    /// Application category.
    pub category: Category,
    /// The workload's results, or why it failed.
    pub outcome: Result<BenchResult, String>,
}

impl BenchRun {
    /// The results, if the workload completed.
    pub fn result(&self) -> Option<&BenchResult> {
        self.outcome.as_ref().ok()
    }
}

/// Run every workload of the paper on `cfg`, each on a fresh GPU, fanned
/// out over `jobs` worker threads (results stay in Table I order for any
/// `jobs`; 1 reproduces the serial sweep). Failures are captured per
/// workload — a [`SimError`] structurally, a panic as a failure message —
/// never panicked: the remaining benchmarks still run and the caller
/// decides how to report the casualties (see [`completed`]).
pub fn run_all(cfg: &GpuConfig, scale: Scale, jobs: usize) -> Vec<BenchRun> {
    let workloads = match scale {
        Scale::Full => all_workloads(),
        Scale::Tiny => tiny_workloads(),
    };
    let meta: Vec<(&'static str, Category)> =
        workloads.iter().map(|w| (w.name(), w.category())).collect();
    gcl_exec::parallel_map(jobs, workloads, |w| run_one(w.as_ref(), cfg))
        .into_iter()
        .zip(meta)
        .map(|(outcome, (name, category))| BenchRun {
            name,
            category,
            outcome: match outcome {
                Ok(r) => r.map_err(|e| e.to_string()),
                Err(panic) => Err(format!("workload panicked: {panic}")),
            },
        })
        .collect()
}

/// Keep the completed results of a sweep, in Table I order. Figures built
/// from the survivors simply render the failed workloads as absent.
pub fn completed(runs: &[BenchRun]) -> Vec<BenchResult> {
    runs.iter().filter_map(|r| r.result().cloned()).collect()
}

/// Run a single workload on a fresh GPU with `cfg`.
///
/// # Errors
///
/// Returns the first [`SimError`] the configuration, an allocation, or a
/// launch produced.
pub fn run_one(w: &dyn Workload, cfg: &GpuConfig) -> Result<BenchResult, SimError> {
    let mut gpu = Gpu::new(cfg.clone())?;
    let run = w.run(&mut gpu)?;
    let static_loads = run
        .kernels
        .iter()
        .map(|k| gcl_core::classify(k).global_load_counts())
        .fold((0, 0), |acc, (d, n)| (acc.0 + d, acc.1 + n));
    Ok(BenchResult {
        name: w.name(),
        category: w.category(),
        stats: run.stats,
        total_ctas: run.total_ctas,
        threads_per_cta: run.threads_per_cta,
        static_loads,
        kernels: run.kernels,
        blocks: gpu.block_summary(),
        distance_hist: gpu.distance_histogram(),
    })
}

/// Write a JSON artifact to `results/<id>.json` and note the path on
/// stderr.
///
/// # Errors
///
/// Names the path that could not be created or written.
pub fn save_json(id: &str, json: &str) -> Result<(), String> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{id}.json"));
    std::fs::write(&path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("(wrote {})", path.display());
    Ok(())
}

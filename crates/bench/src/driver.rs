//! `gcl figures`: regenerate any set of the paper's tables, figures and
//! Section X ablations from as few simulations as possible.
//!
//! Every requested artifact names the configurations it is rendered from
//! (figures: `GpuConfig::fermi()`; ablations: see [`ablation::configs`]).
//! The driver deduplicates them by [`config_fingerprint`], runs
//! [`run_all`] once per distinct configuration, and renders every artifact
//! from those sweeps. `all` needs seven sweeps; the Fermi baseline serves
//! every figure and every ablation.

use crate::ablation;
use crate::figures;
use crate::harness::{completed, run_all, save_json, BenchResult, BenchRun, Scale};
use gcl_sim::{config_fingerprint, GpuConfig};
use gcl_workloads::Category;

/// Every artifact id `gcl figures` can regenerate, in `all` order.
pub const ARTIFACT_IDS: &[&str] = &[
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "table1",
    "critical_loads",
    "summary",
    "ablation_cta_sched",
    "ablation_semiglobal_l2",
    "ablation_warp_split",
    "ablation_prefetch",
];

/// The workload `critical_loads` reports on when none is named.
const DEFAULT_WORKLOAD: &str = "bfs";

/// Run `gcl figures [ID…|all] [WORKLOAD] [--tiny] [--jobs N]`.
///
/// `--tiny` selects the tiny scale and `--jobs N` fans each sweep out over
/// N worker threads (artifacts are identical for any N). A workload name
/// picks the `critical_loads` subject (default `bfs`) and is accepted only
/// when `critical_loads` is requested. Each artifact is printed to stdout
/// and, except `summary`, saved as `results/<id>.json`.
///
/// # Errors
///
/// An unknown id (the message lists the valid ones), an unknown option, a
/// stray argument, or an artifact that could not be written.
pub fn figures(args: &[String]) -> Result<(), String> {
    let valid = || format!("valid: {}, all", ARTIFACT_IDS.join(", "));
    let workloads: Vec<&'static str> = gcl_workloads::all_workloads()
        .iter()
        .map(|w| w.name())
        .collect();
    let mut ids: Vec<&str> = Vec::new();
    let mut workload = None;
    let mut scale = Scale::Full;
    let mut jobs = 1usize;
    let mut args = args.iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--tiny" => scale = Scale::Tiny,
            "--jobs" => {
                let v = args.next().ok_or("figures: --jobs needs a value")?;
                jobs = v.parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
                    format!("figures: --jobs needs a positive integer, got `{v}`")
                })?;
            }
            flag if flag.starts_with('-') => {
                return Err(format!(
                    "figures: unknown option `{flag}` (accepted: --tiny, --jobs N)"
                ));
            }
            "all" => ids.extend(ARTIFACT_IDS),
            id if ARTIFACT_IDS.contains(&id) => ids.push(id),
            name if workloads.contains(&name) => {
                if workload.is_some() {
                    return Err(format!(
                        "figures: unexpected argument `{name}` (critical_loads takes one workload)"
                    ));
                }
                workload = Some(name);
            }
            other => {
                return Err(format!(
                    "figures: no figure or table named `{other}` ({})",
                    valid()
                ));
            }
        }
    }
    if ids.is_empty() {
        return Err(format!(
            "figures: name the artifacts to build ({})",
            valid()
        ));
    }
    if let Some(name) = workload {
        if !ids.contains(&"critical_loads") {
            return Err(format!(
                "figures: workload `{name}` given, but only critical_loads takes one"
            ));
        }
    }
    let mut unique: Vec<&str> = Vec::new();
    for id in ids {
        if !unique.contains(&id) {
            unique.push(id);
        }
    }
    render_all(&unique, workload.unwrap_or(DEFAULT_WORKLOAD), scale, jobs)
}

/// The configurations artifact `id` is rendered from, baseline first.
fn configs(id: &str) -> Vec<GpuConfig> {
    ablation::configs(id).unwrap_or_else(|| vec![GpuConfig::fermi()])
}

/// The distinct configurations the artifacts `ids` need, deduplicated by
/// [`config_fingerprint`], in order of first use.
fn plan(ids: &[&str]) -> Vec<GpuConfig> {
    let mut planned: Vec<GpuConfig> = Vec::new();
    for cfg in ids.iter().flat_map(|id| configs(id)) {
        let fp = config_fingerprint(&cfg);
        if !planned.iter().any(|c| config_fingerprint(c) == fp) {
            planned.push(cfg);
        }
    }
    planned
}

/// Sweep every planned configuration once, then render `ids` in order.
fn render_all(ids: &[&str], workload: &str, scale: Scale, jobs: usize) -> Result<(), String> {
    let planned = plan(ids);
    let mut sweeps: Vec<(u64, Vec<BenchRun>)> = Vec::new();
    for (i, cfg) in planned.iter().enumerate() {
        eprintln!("(sweep {}/{})", i + 1, planned.len());
        let runs = run_all(cfg, scale, jobs);
        for run in &runs {
            if let Err(e) = &run.outcome {
                eprintln!(
                    "warning: workload {} failed, omitted from figures: {e}",
                    run.name
                );
            }
        }
        sweeps.push((config_fingerprint(cfg), runs));
    }
    let sweep = |cfg: &GpuConfig| -> &[BenchRun] {
        let fp = config_fingerprint(cfg);
        let (_, runs) = sweeps
            .iter()
            .find(|(planned, _)| *planned == fp)
            .expect("every needed configuration was planned");
        runs
    };
    let base = GpuConfig::fermi();
    let results = completed(sweep(&base));
    let unloaded = base.unloaded_miss_latency();
    for &id in ids {
        let runs: Vec<&[BenchRun]> = configs(id).iter().map(sweep).collect();
        match (id, runs.as_slice()) {
            ("fig1", _) => emit(id, &figures::fig1(&results))?,
            ("fig2", _) => emit(id, &figures::fig2(&results))?,
            ("fig3", _) => emit(id, &figures::fig3(&results))?,
            ("fig4", _) => emit(id, &figures::fig4(&results))?,
            ("fig5", _) => emit(id, &figures::fig5(&results, unloaded))?,
            ("fig6", _) => emit(id, &figures::fig6(&results, &["bfs", "sssp", "spmv"]))?,
            ("fig7", _) => emit(id, &figures::fig7(&results, "bfs", unloaded))?,
            ("fig8", _) => emit(id, &figures::fig8(&results))?,
            ("fig9", _) => emit(id, &figures::fig9(&results))?,
            ("fig10", _) => emit(id, &figures::fig10(&results))?,
            ("fig11", _) => emit(id, &figures::fig11(&results))?,
            ("fig12", _) => {
                for (panel, cat) in [
                    ("a", Category::Linear),
                    ("b", Category::Image),
                    ("c", Category::Graph),
                ] {
                    emit(&format!("fig12{panel}"), &figures::fig12(&results, cat))?;
                }
            }
            ("table1", _) => emit(id, &figures::table1(&results))?,
            ("critical_loads", _) => emit(
                &format!("critical_loads_{workload}"),
                &figures::critical_loads(&results, workload),
            )?,
            ("summary", _) => summary(&results),
            ("ablation_cta_sched", [base, clustered]) => {
                emit(id, &ablation::cta_sched(base, clustered))?;
            }
            ("ablation_semiglobal_l2", [base, semi]) => {
                emit(id, &ablation::semiglobal_l2(base, semi))?;
            }
            ("ablation_warp_split", [base, split]) => emit(
                id,
                &ablation::warp_split(base, split, ablation::WARP_SPLIT_CHUNK),
            )?,
            ("ablation_prefetch", [off, d_only, n_only, all]) => {
                emit(id, &ablation::prefetch(off, d_only, n_only, all))?;
            }
            (other, _) => unreachable!("id `{other}` validated against ARTIFACT_IDS"),
        }
    }
    Ok(())
}

/// Print one artifact and save its JSON form under `results/`.
fn emit<T: std::fmt::Display + Json>(id: &str, artifact: &T) -> Result<(), String> {
    println!("{artifact}");
    save_json(id, &artifact.to_json())
}

/// The two artifact types both encode themselves; unify them for [`emit`].
trait Json {
    fn to_json(&self) -> String;
}

impl Json for gcl_stats::FigureSeries {
    fn to_json(&self) -> String {
        gcl_stats::FigureSeries::to_json(self)
    }
}

impl Json for gcl_stats::Table {
    fn to_json(&self) -> String {
        gcl_stats::Table::to_json(self)
    }
}

/// One-line-per-workload summary of a full harness run (no JSON artifact).
fn summary(results: &[BenchResult]) {
    println!(
        "{:6} {:7} {:>9} {:>10} {:>9} {:>6} {:>8} {:>6} {:>6} {:>6}",
        "name", "cat", "cycles", "warp insts", "gld", "N%", "L1miss%", "ipc", "simd%", "bdiv%"
    );
    for r in results {
        let p = r.stats.profiler();
        println!(
            "{:6} {:7} {:>9} {:>10} {:>9} {:>5.1} {:>8.1} {:>6.2} {:>6.1} {:>6.1}",
            r.name,
            r.category.to_string(),
            r.stats.cycles,
            r.stats.sm.warp_insts,
            p.gld_request,
            r.stats.nondet_load_fraction() * 100.0,
            p.l1_miss_ratio() * 100.0,
            r.stats.sm.warp_insts as f64 / r.stats.cycles as f64,
            r.stats.simd_utilization(32) * 100.0,
            r.stats.branch_divergence() * 100.0,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::{plan, ARTIFACT_IDS};

    /// `all` simulates seven configurations: the Fermi baseline (shared by
    /// every figure and every ablation) plus one per ablation variant.
    #[test]
    fn plan_sweeps_each_distinct_config_once() {
        assert_eq!(plan(ARTIFACT_IDS).len(), 7);
        assert_eq!(plan(&["fig1", "fig2"]).len(), 1);
        assert_eq!(plan(&["ablation_prefetch"]).len(), 4);
        assert_eq!(plan(&["fig7", "ablation_prefetch", "table1"]).len(), 4);
    }
}

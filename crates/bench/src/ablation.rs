//! Section X ablations: the paper *suggests* three microarchitectural
//! responses to the deterministic/non-deterministic split but does not
//! evaluate them. We implement and measure all three.
//!
//! Each ablation is a pure renderer over whole-suite sweeps: one
//! [`BenchRun`] slice per configuration of [`configs`], baseline first.
//! The baseline is the same `GpuConfig::fermi()` sweep every figure draws
//! from, so it is simulated once for all of them.

use crate::harness::{BenchResult, BenchRun};
use gcl_mem::{AccessOutcome, ClassTag, L2Topology};
use gcl_sim::{CtaSchedPolicy, GpuConfig, PrefetchFilter};
use gcl_stats::{Cell, Table};

/// Sub-warp chunk size of the warp-splitting ablation (A3).
pub const WARP_SPLIT_CHUNK: usize = 4;

/// The configurations ablation `id` compares, baseline first, in the
/// argument order of its renderer; `None` if `id` is not an ablation.
pub fn configs(id: &str) -> Option<Vec<GpuConfig>> {
    let with = |edit: &dyn Fn(&mut GpuConfig)| {
        let mut cfg = GpuConfig::fermi();
        edit(&mut cfg);
        cfg
    };
    let base = GpuConfig::fermi();
    Some(match id {
        "ablation_cta_sched" => vec![
            base,
            with(&|c| c.cta_sched = CtaSchedPolicy::Clustered { group: 2 }),
        ],
        "ablation_semiglobal_l2" => vec![
            base,
            with(&|c| c.l2_topology = L2Topology::Clustered { clusters: 2 }),
        ],
        "ablation_warp_split" => vec![base, with(&|c| c.warp_split_nd = Some(WARP_SPLIT_CHUNK))],
        "ablation_prefetch" => [
            PrefetchFilter::Off,
            PrefetchFilter::DeterministicOnly,
            PrefetchFilter::NonDeterministicOnly,
            PrefetchFilter::All,
        ]
        .iter()
        .map(|&filter| with(&|c| c.prefetch = filter))
        .collect(),
        _ => return None,
    })
}

/// Append one row per workload that completed in every sweep, in Table I
/// order; a workload that failed under any configuration is omitted. The
/// sweeps are parallel: entry `i` of each is the same workload.
fn rows<const N: usize>(
    t: &mut Table,
    sweeps: [&[BenchRun]; N],
    row: impl Fn([&BenchResult; N]) -> Vec<Cell>,
) {
    for i in 0..sweeps[0].len() {
        let results = sweeps.map(|s| s.get(i).and_then(BenchRun::result));
        if results.iter().all(Option::is_some) {
            t.row(row(results.map(|r| r.expect("checked just above"))));
        }
    }
}

fn total_reservation_fails(r: &BenchResult) -> u64 {
    [
        AccessOutcome::ReservationFailTags,
        AccessOutcome::ReservationFailMshr,
        AccessOutcome::ReservationFailIcnt,
    ]
    .iter()
    .map(|o| r.stats.l1.outcome_total(*o))
    .sum()
}

fn overall_l1_miss(r: &BenchResult) -> f64 {
    let hits = r
        .stats
        .l1
        .outcome_class(AccessOutcome::Hit, ClassTag::Deterministic)
        + r.stats
            .l1
            .outcome_class(AccessOutcome::Hit, ClassTag::NonDeterministic);
    let total = r.stats.l1.accepted(ClassTag::Deterministic)
        + r.stats.l1.accepted(ClassTag::NonDeterministic);
    if total == 0 {
        f64::NAN
    } else {
        1.0 - hits as f64 / total as f64
    }
}

/// A1 (Section X-B): round-robin vs. clustered CTA scheduling. Neighboring
/// CTAs share data (Figure 12); co-locating them on an SM should improve L1
/// locality.
pub fn cta_sched(base: &[BenchRun], clustered: &[BenchRun]) -> Table {
    let mut t = Table::new(
        "Ablation A1 — CTA scheduling: round-robin vs clustered (group=2)",
        vec![
            "workload",
            "L1 miss (RR)",
            "L1 miss (clustered)",
            "cycles (RR)",
            "cycles (clustered)",
            "speedup",
        ],
    );
    rows(&mut t, [base, clustered], |[base, clus]| {
        vec![
            base.name.into(),
            Cell::Percent(overall_l1_miss(base)),
            Cell::Percent(overall_l1_miss(clus)),
            base.stats.cycles.into(),
            clus.stats.cycles.into(),
            (base.stats.cycles as f64 / clus.stats.cycles as f64).into(),
        ]
    });
    t
}

/// A2 (Section X-C): unified vs. semi-global (clustered) L2. Each cluster of
/// SMs gets a private slice group; locality improves, aggregate capacity
/// per SM shrinks.
pub fn semiglobal_l2(base: &[BenchRun], semi: &[BenchRun]) -> Table {
    let mut t = Table::new(
        "Ablation A2 — L2 topology: unified vs semi-global (2 clusters)",
        vec![
            "workload",
            "L2 miss (unified)",
            "L2 miss (semi-global)",
            "DRAM latency (unified)",
            "DRAM latency (semi)",
            "speedup",
        ],
    );
    let l2_miss = |r: &BenchResult| {
        let hits = r
            .stats
            .l2
            .outcome_class(AccessOutcome::Hit, ClassTag::Deterministic)
            + r.stats
                .l2
                .outcome_class(AccessOutcome::Hit, ClassTag::NonDeterministic);
        let total = r.stats.l2.accepted(ClassTag::Deterministic)
            + r.stats.l2.accepted(ClassTag::NonDeterministic);
        if total == 0 {
            f64::NAN
        } else {
            1.0 - hits as f64 / total as f64
        }
    };
    rows(&mut t, [base, semi], |[base, semi]| {
        vec![
            base.name.into(),
            Cell::Percent(l2_miss(base)),
            Cell::Percent(l2_miss(semi)),
            base.stats.dram_mean_latency().into(),
            semi.stats.dram_mean_latency().into(),
            (base.stats.cycles as f64 / semi.stats.cycles as f64).into(),
        ]
    });
    t
}

/// A3 (Section X-A): split non-deterministic loads into sub-warp request
/// chunks of `chunk` lanes to de-burst the L1. Measures reservation
/// failures and the mean N-load turnaround.
pub fn warp_split(base: &[BenchRun], split: &[BenchRun], chunk: usize) -> Table {
    let mut t = Table::new(
        format!("Ablation A3 — warp splitting of N loads (chunk={chunk})"),
        vec![
            "workload",
            "rsrv fails (off)",
            "rsrv fails (split)",
            "N turnaround (off)",
            "N turnaround (split)",
            "speedup",
        ],
    );
    let nd = gcl_core::LoadClass::NonDeterministic;
    rows(&mut t, [base, split], |[base, split]| {
        vec![
            base.name.into(),
            total_reservation_fails(base).into(),
            total_reservation_fails(split).into(),
            base.stats.class(nd).turnaround.mean().into(),
            split.stats.class(nd).turnaround.mean().into(),
            (base.stats.cycles as f64 / split.stats.cycles as f64).into(),
        ]
    });
    t
}

/// A4 (Section X-A, after the paper's reference \[16\]): class-selective
/// next-line prefetching.
/// The paper argues prefetchers should be load-class aware; this compares
/// no prefetch, prefetch-on-D-miss, prefetch-on-N-miss, and class-oblivious
/// prefetch.
pub fn prefetch(
    off: &[BenchRun],
    d_only: &[BenchRun],
    n_only: &[BenchRun],
    all: &[BenchRun],
) -> Table {
    let mut t = Table::new(
        "Ablation A4 — class-selective next-line L1 prefetch",
        vec![
            "workload",
            "cycles (off)",
            "cycles (D-only)",
            "cycles (N-only)",
            "cycles (all)",
            "speedup (D-only)",
            "prefetches (D-only)",
        ],
    );
    rows(&mut t, [off, d_only, n_only, all], |[off, d, n, all]| {
        vec![
            off.name.into(),
            off.stats.cycles.into(),
            d.stats.cycles.into(),
            n.stats.cycles.into(),
            all.stats.cycles.into(),
            (off.stats.cycles as f64 / d.stats.cycles as f64).into(),
            d.stats.sm.prefetches_issued.into(),
        ]
    });
    t
}

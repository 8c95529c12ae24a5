//! Benchmarks over the paper-figure pipeline: how long each table/figure
//! takes to regenerate at tiny scale, and how long individual workloads
//! take to simulate. Plain timing loops over `std::time::Instant` — run
//! with `cargo bench --bench paper_figures`.
//!
//! The authoritative figure data comes from `gcl figures` at full scale;
//! these benches exist to track the harness's own performance.

use gcl_bench::figures;
use gcl_bench::harness::{completed, run_all, run_one, Scale};
use gcl_sim::GpuConfig;
use gcl_workloads::{graph_apps, linear};
use std::hint::black_box;
use std::time::Instant;

/// Time `f` over `iters` iterations (after one warmup call) and print the
/// mean time per iteration.
fn bench(name: &str, iters: u64, mut f: impl FnMut()) {
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let ns = start.elapsed().as_nanos() / u128::from(iters.max(1));
    println!("{name:<24} {ns:>12} ns/iter  ({iters} iters)");
}

fn bench_workloads() {
    let cfg = GpuConfig::small();
    bench("simulate/bfs_tiny", 5, || {
        black_box(run_one(&graph_apps::Bfs::tiny(), &cfg)).expect("bfs tiny completes");
    });
    bench("simulate/spmv_tiny", 5, || {
        black_box(run_one(&linear::Spmv::tiny(), &cfg)).expect("spmv tiny completes");
    });
    bench("simulate/mm2_tiny", 5, || {
        black_box(run_one(&linear::Mm2::tiny(), &cfg)).expect("2mm tiny completes");
    });
}

fn bench_figures() {
    // One shared tiny-scale harness run; the builders are then benchmarked
    // on its results.
    let cfg = GpuConfig::small();
    let results = completed(&run_all(&cfg, Scale::Tiny, 1));
    let unloaded = cfg.unloaded_miss_latency();
    bench("figures/table1", 200, || {
        black_box(figures::table1(&results));
    });
    bench("figures/fig1", 200, || {
        black_box(figures::fig1(&results));
    });
    bench("figures/fig2", 200, || {
        black_box(figures::fig2(&results));
    });
    bench("figures/fig3", 200, || {
        black_box(figures::fig3(&results));
    });
    bench("figures/fig4", 200, || {
        black_box(figures::fig4(&results));
    });
    bench("figures/fig5", 200, || {
        black_box(figures::fig5(&results, unloaded));
    });
    bench("figures/fig6", 200, || {
        black_box(figures::fig6(&results, &["bfs", "sssp", "spmv"]));
    });
    bench("figures/fig7", 200, || {
        black_box(figures::fig7(&results, "bfs", unloaded));
    });
    bench("figures/fig8", 200, || {
        black_box(figures::fig8(&results));
    });
    bench("figures/fig9", 200, || {
        black_box(figures::fig9(&results));
    });
    bench("figures/fig10", 200, || {
        black_box(figures::fig10(&results));
    });
    bench("figures/fig11", 200, || {
        black_box(figures::fig11(&results));
    });
    bench("figures/fig12", 200, || {
        black_box(figures::fig12(&results, gcl_workloads::Category::Graph));
    });
}

fn main() {
    bench_workloads();
    bench_figures();
}

//! Absolute golden pins for the tiny suite on `GpuConfig::fermi()`.
//!
//! Every other determinism gate compares two paths of one build (serial vs
//! parallel, replay vs execution, resumed vs uninterrupted), so a model
//! change that shifts both paths together passes them all. These pins do
//! not: each row fixes, for one tiny workload, its simulated cycles, its
//! warp instructions and the FNV checksum of its wire-encoded
//! `LaunchStats` (the payload `gcl::exec::fleet::encode_stats_payload`
//! checksums). The sweep is the one `gcl figures --tiny` renders from.
//!
//! An intentional model change updates this table in the same change and
//! says why; the full-scale pins live in `perfbench/pins.json`.

use gcl::exec::fleet::encode_stats_payload;
use gcl::prelude::*;
use gcl_bench::harness::{run_all, Scale};

/// (workload, cycles, warp instructions, stats payload FNV), Table I order.
const PINS: [(&str, u64, u64, &str); 15] = [
    ("2mm", 3395, 3744, "0x0adf065c78ab75c1"),
    ("gaus", 6586, 1613, "0x0fc168914f9cc601"),
    ("grm", 12271, 8610, "0x7e2151324159e466"),
    ("lu", 7298, 3426, "0x2b12e841b14c41d2"),
    ("spmv", 783, 249, "0x6ea8e2f7e745a63d"),
    ("htw", 6217, 17316, "0xe2bb1982c57ea8f6"),
    ("mriq", 824, 410, "0x9cc6d5d973830701"),
    ("dwt", 663, 312, "0x8d8d17d247873a5d"),
    ("bpr", 1322, 1193, "0x096b3da430806e45"),
    ("srad", 850, 1208, "0xc3c5ccd1e7ffcf56"),
    ("bfs", 6457, 1509, "0x74e5de0f079aa6ce"),
    ("sssp", 6909, 3102, "0xce778d56fe6a1960"),
    ("ccl", 3012, 914, "0xce328c9a094f4c69"),
    ("mst", 4486, 1402, "0x74f2550da150f864"),
    ("mis", 5816, 2036, "0x7f3087d088c9843d"),
];

#[test]
fn tiny_fermi_suite_matches_golden_pins() {
    let runs = run_all(&GpuConfig::fermi(), Scale::Tiny, 2);
    let mut diffs = Vec::new();
    for (run, &(name, cycles, warp_insts, fnv)) in runs.iter().zip(PINS.iter()) {
        assert_eq!(run.name, name, "suite order drifted from the pin table");
        let stats = match &run.outcome {
            Ok(r) => &r.stats,
            Err(e) => {
                diffs.push(format!("{name}: failed: {e}"));
                continue;
            }
        };
        let (_, got_fnv) = encode_stats_payload(stats);
        for (field, want, got) in [
            ("cycles", cycles.to_string(), stats.cycles.to_string()),
            (
                "sm.warp_insts",
                warp_insts.to_string(),
                stats.sm.warp_insts.to_string(),
            ),
            ("stats fnv", fnv.to_string(), got_fnv),
        ] {
            if want != got {
                diffs.push(format!("{name}.{field}: pinned {want}, got {got}"));
            }
        }
    }
    assert_eq!(
        runs.len(),
        PINS.len(),
        "suite size drifted from the pin table"
    );
    assert!(
        diffs.is_empty(),
        "{} golden pin mismatch(es):\n  {}",
        diffs.len(),
        diffs.join("\n  ")
    );
}

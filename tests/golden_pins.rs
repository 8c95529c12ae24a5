//! Absolute golden pins for the tiny suite on `GpuConfig::fermi()`.
//!
//! Every other determinism gate compares two paths of one build (serial vs
//! parallel, replay vs execution, resumed vs uninterrupted), so a model
//! change that shifts both paths together passes them all. These pins do
//! not: each row fixes, for one tiny workload, its simulated cycles, its
//! warp instructions and the FNV checksum of its wire-encoded
//! `LaunchStats` (the payload `gcl::exec::fleet::encode_stats_payload`
//! checksums). The sweep is the one `gcl figures --tiny` renders from. The
//! `digest` column pins the sanitizer's per-workload event digest
//! (`LaunchStats::digest`) from a second tiny sweep with `sanitize` on.
//!
//! An intentional model change updates this table in the same change and
//! says why; the full-scale pins live in `perfbench/pins.json`.

use gcl::exec::fleet::encode_stats_payload;
use gcl::prelude::*;
use gcl_bench::harness::{run_all, Scale};

/// (workload, cycles, warp instructions, stats payload FNV, sanitize-mode
/// event digest), Table I order.
#[rustfmt::skip]
const PINS: [(&str, u64, u64, &str, &str); 15] = [
    ("2mm", 3395, 3744, "0x0adf065c78ab75c1", "0x53dcb4695b798933"),
    ("gaus", 6586, 1613, "0x0fc168914f9cc601", "0x7dccb290f514edc8"),
    ("grm", 12271, 8610, "0x7e2151324159e466", "0x15595fddddd5b9b7"),
    ("lu", 7298, 3426, "0x2b12e841b14c41d2", "0x1503f0654e781d26"),
    ("spmv", 783, 249, "0x6ea8e2f7e745a63d", "0xe303358048980add"),
    ("htw", 6217, 17316, "0xe2bb1982c57ea8f6", "0xea6b947ec39558e5"),
    ("mriq", 824, 410, "0x9cc6d5d973830701", "0xc92f5ab336e4e294"),
    ("dwt", 663, 312, "0x8d8d17d247873a5d", "0x36242cd1d8fc0233"),
    ("bpr", 1322, 1193, "0x096b3da430806e45", "0x9f022e11c6c796e1"),
    ("srad", 850, 1208, "0xc3c5ccd1e7ffcf56", "0x2edb364eac0f485d"),
    ("bfs", 6457, 1509, "0x74e5de0f079aa6ce", "0xe4719e9dc73a12ba"),
    ("sssp", 6909, 3102, "0xce778d56fe6a1960", "0x681464121fb1f16e"),
    ("ccl", 3012, 914, "0xce328c9a094f4c69", "0x9afab253026990b2"),
    ("mst", 4486, 1402, "0x74f2550da150f864", "0x019e10854618ec83"),
    ("mis", 5816, 2036, "0x7f3087d088c9843d", "0x1d804cc11acf428a"),
];

#[test]
fn tiny_fermi_suite_matches_golden_pins() {
    let runs = run_all(&GpuConfig::fermi(), Scale::Tiny, 2);
    let sanitized = GpuConfig {
        sanitize: true,
        ..GpuConfig::fermi()
    };
    let san_runs = run_all(&sanitized, Scale::Tiny, 2);
    let mut diffs = Vec::new();
    for ((run, san_run), &(name, cycles, warp_insts, fnv, digest)) in
        runs.iter().zip(&san_runs).zip(PINS.iter())
    {
        assert_eq!(run.name, name, "suite order drifted from the pin table");
        let (stats, san_stats) = match (&run.outcome, &san_run.outcome) {
            (Ok(r), Ok(s)) => (&r.stats, &s.stats),
            (Err(e), _) | (_, Err(e)) => {
                diffs.push(format!("{name}: failed: {e}"));
                continue;
            }
        };
        let (_, got_fnv) = encode_stats_payload(stats);
        let got_digest = match san_stats.digest {
            Some(d) => format!("{d:#018x}"),
            None => "none".to_string(),
        };
        for (field, want, got) in [
            ("cycles", cycles.to_string(), stats.cycles.to_string()),
            (
                "sm.warp_insts",
                warp_insts.to_string(),
                stats.sm.warp_insts.to_string(),
            ),
            ("stats fnv", fnv.to_string(), got_fnv),
            ("digest", digest.to_string(), got_digest),
        ] {
            if want != got {
                diffs.push(format!("{name}.{field}: pinned {want}, got {got}"));
            }
        }
    }
    assert_eq!(
        (runs.len(), san_runs.len()),
        (PINS.len(), PINS.len()),
        "suite size drifted from the pin table"
    );
    assert!(
        diffs.is_empty(),
        "{} golden pin mismatch(es):\n  {}",
        diffs.len(),
        diffs.join("\n  ")
    );
}

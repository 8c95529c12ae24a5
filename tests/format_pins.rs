//! Byte pins for the four on-disk container formats.
//!
//! Each artifact below is built from fixed inputs and its complete file
//! bytes are folded into one FNV-1a value. A framing refactor, a codec
//! change or a model change that moves any byte of a checkpoint, a cache
//! entry, a trace container or a journal shows up here, named by artifact.
//! A deliberate format change bumps that format's version constant and
//! updates its pin in the same change.

use gcl::exec::fleet::{JCounter, Journal, Record};
use gcl::prelude::*;
use gcl::sim::{config_fingerprint, fnv_fold_bytes, FNV_OFFSET};
use gcl::workloads::tiny_workloads;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// (artifact, FNV-1a of its full file bytes).
const PINS: [(&str, &str); 4] = [
    ("GCLTRACE tiny 2mm", "0x751e20121e9840c9"),
    ("GCLEXEC1 tiny 2mm", "0x942a2b899ce1a839"),
    ("GCLSNAP1 fermi after tiny 2mm", "0xf5df85dc0e59b7b9"),
    ("gcljrnl fixed records", "0xb966569e039f42ce"),
];

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gcl-format-pins-{}-{name}", std::process::id()))
}

fn fnv_hex(bytes: &[u8]) -> String {
    format!("{:#018x}", fnv_fold_bytes(FNV_OFFSET, bytes))
}

/// Capture tiny 2mm on Fermi into a trace, then snapshot the same GPU and
/// file the run's stats in a result cache. Returns (trace, cache entry,
/// snapshot) bytes.
fn two_mm_artifacts() -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    let cfg = GpuConfig::fermi();
    let w = tiny_workloads()
        .into_iter()
        .find(|w| w.name() == "2mm")
        .expect("2mm in the tiny set");

    let trace_path = scratch("2mm.gcltrace");
    let writer = TraceWriter::create(&trace_path, config_fingerprint(&cfg), 1 << 20).unwrap();
    let sink = Arc::new(Mutex::new(writer));
    let mut gpu = Gpu::new(cfg.clone()).unwrap();
    gpu.set_trace_sink(Some(Box::new(sink.clone())));
    let run = w.run(&mut gpu).expect("tiny 2mm runs");
    gpu.set_trace_sink(None);
    let writer = Arc::try_unwrap(sink).unwrap().into_inner().unwrap();
    writer.finish().unwrap();
    let trace = std::fs::read(&trace_path).unwrap();
    std::fs::remove_file(&trace_path).unwrap();

    let snapshot = gpu.snapshot().to_bytes();

    let dir = scratch("cache");
    let cache = ResultCache::new(&dir);
    let fp = JobSpec::new("2mm", true, cfg).fingerprint().unwrap();
    cache.store(&fp, &run.stats, 0.0).unwrap();
    let entry = std::fs::read(cache.entry_path(fp.key())).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    (trace, entry, snapshot)
}

fn journal_bytes() -> Vec<u8> {
    let path = scratch("fixed.journal");
    let records = [
        Record::SessionOpen {
            session: "s-1".to_string(),
        },
        Record::Submit {
            id: 1,
            key: 0xdead_beef,
            workload: "2mm".to_string(),
            tiny: true,
            sanitize: false,
            max_cycles: Some(123),
            session: Some("s-1".to_string()),
        },
        Record::Lease {
            id: 1,
            worker: "w1".to_string(),
        },
        Record::Done {
            id: 1,
            cached: false,
            wall_ms: 1.5,
            worker_wall_ms: 2.5,
            worker: "w1".to_string(),
            payload: vec![1, 2, 3],
        },
        Record::Stored {
            key: 0xdead_beef,
            count: 2,
        },
        Record::Counter {
            counter: JCounter::Rebalances,
            delta: 1,
        },
    ];
    let mut journal = Journal::create(&path).unwrap();
    for rec in &records {
        journal.append(rec).unwrap();
    }
    journal.sync().unwrap();
    drop(journal);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    bytes
}

#[test]
fn container_bytes_match_pins() {
    let (trace, entry, snapshot) = two_mm_artifacts();
    let got = [trace, entry, snapshot, journal_bytes()];
    let drifted: Vec<String> = PINS
        .iter()
        .zip(&got)
        .filter(|((_, want), bytes)| fnv_hex(bytes) != *want)
        .map(|((name, want), bytes)| {
            format!(
                "{name}: pinned {want}, got {} ({} bytes)",
                fnv_hex(bytes),
                bytes.len()
            )
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "{} container format pin(s) drifted:\n  {}",
        drifted.len(),
        drifted.join("\n  ")
    );
}

//! Integration tests of `gcl figures`: every artifact from one set of
//! sweeps, identical for any `--jobs`, strict argument parsing, and
//! artifact write failures surfacing as errors. Each test drives the real
//! binary in its own scratch directory (artifacts land under `results/`).

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};

/// The JSON artifacts `figures all` writes, sorted.
const ALL_ARTIFACTS: [&str; 20] = [
    "ablation_cta_sched.json",
    "ablation_prefetch.json",
    "ablation_semiglobal_l2.json",
    "ablation_warp_split.json",
    "critical_loads_bfs.json",
    "fig1.json",
    "fig10.json",
    "fig11.json",
    "fig12a.json",
    "fig12b.json",
    "fig12c.json",
    "fig2.json",
    "fig3.json",
    "fig4.json",
    "fig5.json",
    "fig6.json",
    "fig7.json",
    "fig8.json",
    "fig9.json",
    "table1.json",
];

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gcl-cli-figures-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn spawn(dir: &Path, args: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_gcl"))
        .arg("figures")
        .args(args)
        .current_dir(dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run gcl binary")
}

fn figures(dir: &Path, args: &[&str]) -> Output {
    spawn(dir, args).wait_with_output().expect("wait for gcl")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The sorted file names under `dir/results`.
fn artifacts(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir.join("results"))
        .expect("results directory")
        .map(|e| e.expect("dir entry").file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

/// `all --tiny` writes exactly the 20 artifacts, byte-identical and with
/// identical stdout whether the sweeps run on one thread or two. The
/// two-thread run also names the critical-loads workload explicitly — the
/// default — so the positional workload is accepted alongside `all`.
#[test]
fn all_tiny_is_identical_for_any_jobs() {
    let serial_dir = scratch("serial");
    let parallel_dir = scratch("parallel");
    let serial = spawn(&serial_dir, &["all", "--tiny", "--jobs", "1"]);
    let parallel = spawn(&parallel_dir, &["all", "bfs", "--tiny", "--jobs", "2"]);
    let serial = serial.wait_with_output().expect("wait for gcl");
    let parallel = parallel.wait_with_output().expect("wait for gcl");
    assert!(serial.status.success(), "{}", stderr(&serial));
    assert!(parallel.status.success(), "{}", stderr(&parallel));

    assert_eq!(artifacts(&serial_dir), ALL_ARTIFACTS);
    assert_eq!(artifacts(&parallel_dir), ALL_ARTIFACTS);
    for name in ALL_ARTIFACTS {
        let a = std::fs::read(serial_dir.join("results").join(name)).unwrap();
        let b = std::fs::read(parallel_dir.join("results").join(name)).unwrap();
        assert!(a == b, "{name} differs between --jobs 1 and --jobs 2");
    }
    assert!(
        serial.stdout == parallel.stdout,
        "stdout differs between --jobs 1 and --jobs 2"
    );
    // Seven sweeps: the shared Fermi baseline plus six ablation variants.
    assert_eq!(stderr(&serial).matches("(sweep ").count(), 7);
    let _ = std::fs::remove_dir_all(serial_dir);
    let _ = std::fs::remove_dir_all(parallel_dir);
}

/// An unknown artifact id exits 1 and lists every valid id.
#[test]
fn unknown_id_exits_one_and_lists_valid_ids() {
    let dir = scratch("unknown");
    let out = figures(&dir, &["fig99", "--tiny"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("no figure or table named `fig99`"), "{err}");
    for id in gcl_bench::driver::ARTIFACT_IDS {
        assert!(err.contains(id), "error must list `{id}`: {err}");
    }
    assert!(err.contains("all"), "{err}");
    assert!(!dir.join("results").exists(), "nothing may be written");
    let _ = std::fs::remove_dir_all(dir);
}

/// Unknown flags, stray positionals, bad `--jobs` values, a workload
/// without `critical_loads` and an empty request are rejected before
/// anything is simulated.
#[test]
fn bad_arguments_are_rejected() {
    let dir = scratch("args");
    for (args, expect) in [
        (&["fig1", "--huge"][..], "unknown option `--huge`"),
        (
            &["critical_loads", "bfs", "sssp"],
            "unexpected argument `sssp`",
        ),
        (&["fig1", "--jobs", "0"], "--jobs needs a positive integer"),
        (&["fig1", "--jobs"], "--jobs needs a value"),
        (&["fig1", "bfs"], "only critical_loads takes one"),
        (&["--tiny"], "name the artifacts to build"),
    ] {
        let out = figures(&dir, args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = stderr(&out);
        assert!(err.contains(expect), "{args:?}: {err}");
        assert!(!err.contains("(sweep "), "{args:?} simulated: {err}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// A `results` path that cannot be a directory fails the run with exit 1
/// and names the path, instead of silently writing nothing.
#[test]
fn unwritable_results_exits_one() {
    let dir = scratch("unwritable");
    std::fs::write(dir.join("results"), "not a directory").unwrap();
    let out = figures(&dir, &["fig1", "--tiny"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("cannot create results"), "{err}");
    let _ = std::fs::remove_dir_all(dir);
}

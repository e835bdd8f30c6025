//! End-to-end CLI checks for harness parallelism: `chaos --cores N` must
//! print byte-identical stdout at every core count (progress and timing go
//! to stderr precisely so this can hold), and `--replay-corpus` must gate
//! on saved entries.

use std::process::Command;

fn chaos(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_chaos"))
        .args(args)
        .output()
        .expect("spawn chaos")
}

#[test]
fn stdout_is_byte_identical_across_core_counts() {
    let base = ["--schedules", "50", "--seed", "0"];
    let one = chaos(&[&base[..], &["--cores", "1"]].concat());
    assert!(
        one.status.success(),
        "cores=1 run failed:\n{}",
        String::from_utf8_lossy(&one.stderr)
    );
    for cores in ["2", "4"] {
        let n = chaos(&[&base[..], &["--cores", cores]].concat());
        assert!(n.status.success(), "cores={cores} run failed");
        assert_eq!(
            String::from_utf8_lossy(&one.stdout),
            String::from_utf8_lossy(&n.stdout),
            "stdout diverged between --cores 1 and --cores {cores}"
        );
    }
}

#[test]
fn replay_corpus_judges_saved_entries() {
    let dir = std::env::temp_dir().join(format!("o2pc-cli-corpus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Mine a small block with corpus persistence on; interesting schedules
    // exist in the first 50 seeds (the library round-trip test pins that).
    let mine = chaos(&[
        "--schedules",
        "50",
        "--seed",
        "0",
        "--corpus",
        dir.to_str().unwrap(),
    ]);
    assert!(mine.status.success());
    let entries = std::fs::read_dir(&dir)
        .expect("corpus dir was created")
        .count();
    assert!(entries > 0, "no corpus entries were written");

    let replayed = chaos(&["--replay-corpus", dir.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&replayed.stdout).to_string();
    assert!(
        replayed.status.success(),
        "corpus replay reported violations:\n{stdout}"
    );
    assert!(
        stdout.contains(&format!("{entries} corpus entries replayed, 0 violations")),
        "unexpected replay summary:\n{stdout}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Bad input from outside ends in a usage error, not a panic: a zero
/// segment size used to trip an assertion inside the log and take the
/// worker pool down with it.
#[test]
fn zero_segment_bytes_is_a_usage_error() {
    let out = chaos(&["--schedules", "3", "--durable", "--segment-bytes", "0"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--segment-bytes"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let out = Command::new(env!("CARGO_BIN_EXE_kill_recover"))
        .args(["--segment-bytes", "0"])
        .output()
        .expect("spawn kill_recover");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: kill_recover"));
}

/// `--wal-dir` moves a durable sweep's logs and nothing else: stdout is the
/// default location's, and the sweep leaves the directory as it found it.
#[test]
fn wal_dir_moves_the_logs_not_the_output() {
    let root = o2pc_common::ScratchDir::new("cli-wal-dir");
    let base = [
        "--schedules",
        "10",
        "--seed",
        "0",
        "--cores",
        "2",
        "--durable",
    ];
    let default = chaos(&base);
    let moved = chaos(&[&base[..], &["--wal-dir", root.to_str().unwrap()]].concat());
    assert!(default.status.success() && moved.status.success());
    assert_eq!(
        String::from_utf8_lossy(&default.stdout),
        String::from_utf8_lossy(&moved.stdout)
    );
    let left: Vec<_> = std::fs::read_dir(&*root)
        .expect("the directory is still there")
        .collect();
    assert!(left.is_empty(), "left behind: {left:?}");
}

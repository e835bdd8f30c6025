//! End-to-end CLI checks for the one experiment driver: positional ids
//! select experiments and print exactly their recorded tables, bad ids are
//! usage errors, and a CSV that cannot be written fails the run.

use o2pc_common::ScratchDir;
use std::path::Path;
use std::process::{Command, Output};

/// Run the driver from `cwd` (it writes `results/` relative to it).
fn all_experiments(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_all_experiments"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn all_experiments")
}

/// One experiment's part of `bench_tables.txt`, located by its `## ` header:
/// from the blank line that opens the section up to the next section's.
fn section<'a>(tables: &'a str, header: &str) -> &'a str {
    let start = tables
        .find(&format!("\n{header}"))
        .unwrap_or_else(|| panic!("no `{header}` section in bench_tables.txt"));
    let len = tables[start + 1..]
        .find("\n## ")
        .expect("a later section follows");
    &tables[start..start + 1 + len]
}

#[test]
fn ids_print_exactly_their_recorded_sections_in_argument_order() {
    let tables = include_str!("../../../bench_tables.txt");
    let cwd = ScratchDir::new("driver-cli-ids");
    // Suite order and its reverse: the arguments decide, not the suite.
    let (f2, e6) = (("fig2", "## F2"), ("e6", "## E6"));
    for order in [[f2, e6], [e6, f2]] {
        let out = all_experiments(&cwd, &order.map(|(id, _)| id));
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let expected: String = order.iter().map(|(_, h)| section(tables, h)).collect();
        assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
    }
    assert!(cwd.join("results/e6_message_counts.csv").is_file());
}

#[test]
fn unknown_id_is_a_usage_error_listing_the_ids() {
    let cwd = ScratchDir::new("driver-cli-unknown");
    let out = all_experiments(&cwd, &["e6", "e42"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing may run before the error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`e42`"), "{stderr}");
    assert!(
        stderr.contains("fig1 fig2 e1 e2 e3 e4 e5 e5b e6 e7 e8 e9"),
        "{stderr}"
    );
}

#[test]
fn unwritable_csv_fails_the_run_and_names_the_path() {
    let cwd = ScratchDir::new("driver-cli-unwritable");
    std::fs::write(cwd.join("results"), "not a directory").unwrap();
    let out = all_experiments(&cwd, &["fig2"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("results/f2_marking_transitions.csv"),
        "{stderr}"
    );
}

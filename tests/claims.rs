//! The paper's claims as checked inequalities over the recorded experiment
//! tables under `results/`.
//!
//! CI regenerates those CSVs and diffs them byte for byte, which pins
//! determinism but says nothing about what a table means. These tests say
//! what a re-blessed table may not change: each one reads one CSV and
//! asserts the shape EXPERIMENTS.md calls a "Match" (who wins, what grows,
//! what stays flat), printing the offending row when a claim fails.
//!
//! ```sh
//! cargo test --test claims
//! ```

use std::collections::BTreeSet;

/// One CSV under `results/`: its header and its rows, as strings.
struct Table {
    name: &'static str,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

/// Split one CSV line; a field may be double-quoted to hold commas.
fn fields(line: &str) -> Vec<String> {
    let mut out = vec![String::new()];
    let mut quoted = false;
    for c in line.chars() {
        match c {
            '"' => quoted = !quoted,
            ',' if !quoted => out.push(String::new()),
            _ => out.last_mut().unwrap().push(c),
        }
    }
    out
}

fn table(name: &'static str) -> Table {
    let path = format!("{}/results/{name}.csv", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let mut lines = text.lines().filter(|l| !l.is_empty());
    let header = fields(lines.next().unwrap_or_else(|| panic!("{path} is empty")));
    let rows = lines.map(fields).collect();
    Table { name, header, rows }
}

impl Table {
    fn col(&self, name: &str) -> usize {
        let col = self.header.iter().position(|h| h == name);
        col.unwrap_or_else(|| panic!("{}: no column {name:?} in {:?}", self.name, self.header))
    }

    /// The rows whose column `key` reads `value`.
    fn rows_where<'a>(&'a self, key: &str, value: &'a str) -> impl Iterator<Item = &'a [String]> {
        let col = self.col(key);
        self.rows
            .iter()
            .filter(move |r| r[col] == value)
            .map(Vec::as_slice)
    }

    /// The one row matching every `(column, value)` pair.
    fn row(&self, keys: &[(&str, &str)]) -> &[String] {
        let cols: Vec<(usize, &str)> = keys.iter().map(|&(k, v)| (self.col(k), v)).collect();
        let mut hits = self
            .rows
            .iter()
            .filter(|r| cols.iter().all(|&(c, v)| r[c] == v));
        let row = hits.next();
        let row = row.unwrap_or_else(|| panic!("{}: no row with {keys:?}", self.name));
        assert!(
            hits.next().is_none(),
            "{}: two rows with {keys:?}",
            self.name
        );
        row
    }

    fn num(&self, row: &[String], col: &str) -> f64 {
        let v = &row[self.col(col)];
        v.parse()
            .unwrap_or_else(|e| panic!("{}: {col} = {v:?} in {row:?}: {e}", self.name))
    }

    /// The distinct values of column `key`, in file order.
    fn keys(&self, key: &str) -> Vec<String> {
        let col = self.col(key);
        let mut seen = BTreeSet::new();
        let rows = self.rows.iter().map(|r| r[col].clone());
        rows.filter(|k| seen.insert(k.clone())).collect()
    }
}

/// E1: at every link latency of at least 1 ms, O2PC's mean exclusive hold
/// is at most 0.55 of 2PL-2PC's: the decision leg no longer holds locks.
#[test]
fn e1_o2pc_hold_at_most_055_of_2pl() {
    let t = table("e1_lock_hold_time");
    for lat in t.keys("latency(ms)") {
        if lat.parse::<f64>().unwrap() < 1.0 {
            continue;
        }
        let hold = |p| {
            let row = t.row(&[("latency(ms)", &lat), ("protocol", p)]);
            (t.num(row, "mean X-hold(ms)"), row.to_vec())
        };
        let ((o2pc, o_row), (d2pl, d_row)) = (hold("O2PC"), hold("2PL-2PC"));
        assert!(
            o2pc <= 0.55 * d2pl,
            "E1 at {lat} ms: {o_row:?} against {d_row:?}"
        );
    }
}

/// E2: under contention O2PC has the higher throughput and the lower mean
/// latency at every operating point.
#[test]
fn e2_o2pc_wins_every_contended_point() {
    let t = table("e2_contention_throughput");
    let (o2pc, d2pl): (Vec<_>, Vec<_>) = (
        t.rows_where("protocol", "O2PC").collect(),
        t.rows_where("protocol", "2PL-2PC").collect(),
    );
    assert_eq!(o2pc.len(), d2pl.len());
    for (o, d) in o2pc.iter().zip(&d2pl) {
        assert_eq!(o[..2], d[..2], "E2: rows out of step");
        let tput = t.num(o, "throughput(txn/s)") > t.num(d, "throughput(txn/s)");
        let lat = t.num(o, "mean latency(ms)") < t.num(d, "mean latency(ms)");
        assert!(tput && lat, "E2: {o:?} against {d:?}");
    }
}

/// E3: O2PC leads at p = 0, compensations grow with p up to p = 0.5, and
/// 2PL-2PC overtakes it somewhere at p >= 0.5 (the optimism crossover).
#[test]
fn e3_crossover_at_high_abort_rates() {
    let t = table("e3_abort_crossover");
    let tput = |p, proto| {
        t.num(
            t.row(&[("p(site votes no)", p), ("protocol", proto)]),
            "throughput(txn/s)",
        )
    };
    assert!(
        tput("0.00", "O2PC") > tput("0.00", "2PL-2PC"),
        "E3: O2PC behind at p = 0"
    );
    let ps = t.keys("p(site votes no)");
    let high: Vec<&String> = ps
        .iter()
        .filter(|p| p.parse::<f64>().unwrap() >= 0.5)
        .collect();
    assert!(
        high.iter().any(|p| tput(p, "2PL-2PC") > tput(p, "O2PC")),
        "E3: no crossover at p >= 0.5"
    );
    let comps: Vec<f64> = t
        .rows_where("protocol", "O2PC")
        .filter(|r| r[0].parse::<f64>().unwrap() <= 0.5)
        .map(|r| t.num(r, "compensations"))
        .collect();
    assert!(
        comps.windows(2).all(|w| w[0] < w[1]),
        "E3: compensations {comps:?}"
    );
}

/// E4: with the coordinator down between VOTE-REQ and DECISION, 2PL-2PC's
/// longest exclusive hold covers the downtime (with or without the
/// termination protocol), while O2PC's is the same at every downtime.
#[test]
fn e4_o2pc_hold_flat_in_coordinator_downtime() {
    let t = table("e4_blocking_window");
    let proto = t.col("protocol");
    let mut o2pc = BTreeSet::new();
    for row in &t.rows {
        let down = t.num(row, "coordinator downtime(ms)");
        let max = t.num(row, "max X-hold(ms)");
        if row[proto] == "O2PC" {
            o2pc.insert(row[t.col("max X-hold(ms)")].clone());
            assert!(max < 10.0, "E4: O2PC blocked by the downtime: {row:?}");
        } else {
            assert!(max >= down, "E4: 2PL-2PC hold below the downtime: {row:?}");
        }
    }
    assert_eq!(
        o2pc.len(),
        1,
        "E4: O2PC's hold moves with downtime: {o2pc:?}"
    );
}

/// E5: P1 costs nothing without aborts. At p = 0 O2PC+P1's throughput
/// equals bare O2PC's, with no R1 rejection.
#[test]
fn e5_p1_equals_bare_o2pc_without_aborts() {
    let t = table("e5_p1_overhead");
    let o2pc = t.row(&[("p(abort)", "0.00"), ("protocol", "O2PC")]);
    let p1 = t.row(&[("p(abort)", "0.00"), ("protocol", "O2PC+P1")]);
    let col = "throughput(txn/s)";
    assert_eq!(
        t.num(o2pc, col),
        t.num(p1, col),
        "E5: {p1:?} against {o2pc:?}"
    );
    assert_eq!(t.num(p1, "R1 rejections"), 0.0, "E5: {p1:?}");
}

/// E6: every protocol exchanges exactly the standard 2PC messages: 8.000
/// per two-site transaction.
#[test]
fn e6_eight_2pc_messages_per_txn_for_every_protocol() {
    let t = table("e6_message_counts");
    let protocols = t.keys("protocol");
    assert_eq!(protocols.len(), 5, "E6: protocols {protocols:?}");
    let col = t.col("2PC msgs/txn");
    for row in &t.rows {
        assert_eq!(row[col], "8.000", "E6: {row:?}");
    }
}

/// E7: at p = 0.4 bare O2PC's histories hold regular cycles, while
/// O2PC+P1, O2PC+Simple and 2PL-2PC satisfy the criterion.
#[test]
fn e7_only_bare_o2pc_violates_the_criterion() {
    let t = table("e7_correctness_audit");
    let verdict = |proto| {
        let row = t.row(&[("workload", "banking p=0.4"), ("protocol", proto)]);
        row[t.col("criterion")].clone()
    };
    assert_eq!(verdict("O2PC"), "VIOLATED", "E7: bare O2PC");
    for proto in ["O2PC+P1", "O2PC+Simple", "2PL-2PC"] {
        assert_eq!(verdict(proto), "SATISFIED", "E7: {proto}");
    }
    let col = t.col("AoC violations");
    for row in &t.rows {
        assert_eq!(row[col], "0", "E7: Theorem 2 violated: {row:?}");
    }
}

/// E8: the median exclusive hold grows with every real-action site added.
#[test]
fn e8_real_action_sites_lengthen_holds() {
    let t = table("e8_real_actions");
    let p50: Vec<f64> = t.rows.iter().map(|r| t.num(r, "p50 X-hold(ms)")).collect();
    assert!(p50.windows(2).all(|w| w[0] < w[1]), "E8: p50 holds {p50:?}");
}

/// E9: foreign commit traffic delays local transactions less under O2PC:
/// a lower local p99 when healthy, and a lower local mean in every
/// scenario.
#[test]
fn e9_o2pc_locals_wait_less() {
    let t = table("e9_autonomy");
    let row = |scenario: &str, proto: &str| -> Vec<String> {
        t.row(&[("scenario", scenario), ("protocol", proto)])
            .to_vec()
    };
    let (o, d) = (row("healthy", "O2PC"), row("healthy", "2PL-2PC"));
    let p99 = "local p99(ms)";
    assert!(t.num(&o, p99) < t.num(&d, p99), "E9: {o:?} against {d:?}");
    for scenario in t.keys("scenario") {
        let (o, d) = (row(&scenario, "O2PC"), row(&scenario, "2PL-2PC"));
        let mean = "local mean(ms)";
        assert!(t.num(&o, mean) < t.num(&d, mean), "E9: {o:?} against {d:?}");
    }
}

/// E10 (threaded, recorded by `all_experiments --backend threaded`): below
/// capacity the achieved rate is at least 0.9 of the offered rate, with a
/// sub-100 µs median.
#[test]
fn e10_threaded_backend_keeps_up_below_capacity() {
    let t = table("e10_open_loop_threaded");
    let below = &t.rows[..t.rows.len() - 1];
    assert!(!below.is_empty(), "E10: no row below capacity");
    for row in below {
        let share = t.num(row, "achieved(txn/s)") / t.num(row, "offered(txn/s)");
        assert!(
            share >= 0.9 && t.num(row, "p50(µs)") < 100.0,
            "E10: {row:?}"
        );
    }
}

/// F1: the detector's verdict on each scenario of Figure 1 and Example 1.
#[test]
fn f1_regular_cycle_verdicts_are_exact() {
    let t = table("f1_regular_cycles");
    let verdicts: Vec<(&str, &str)> = t
        .rows
        .iter()
        .map(|r| (r[0].as_str(), r[t.col("regular?")].as_str()))
        .collect();
    assert_eq!(
        verdicts,
        [
            ("Example 1 (shortcut via SG2)", "non-regular"),
            ("Figure 1(a): CT1→T2 | T2→T1", "REGULAR"),
            ("Figure 1(b): T2→CT1 | CT1→T2", "REGULAR"),
            ("Figure 1(c): CT1→T2→CT3→CT1", "REGULAR"),
            ("CT-only cycle (allowed)", "non-regular"),
        ]
    );
}

/// F2: the marking state machine has exactly Figure 2's six transitions,
/// and rejects every other (state, event) pair.
#[test]
fn f2_marking_transitions_are_exact() {
    let t = table("f2_marking_transitions");
    let next = t.col("next state");
    let legal: BTreeSet<(&str, &str, &str)> = t
        .rows
        .iter()
        .filter(|r| r[next] != "(illegal)")
        .map(|r| (r[0].as_str(), r[1].as_str(), r[next].as_str()))
        .collect();
    let figure2 = BTreeSet::from([
        ("unmarked", "VoteCommit", "locally-committed"),
        ("unmarked", "VoteAbort", "undone"),
        ("locally-committed", "DecisionCommit", "unmarked"),
        ("locally-committed", "DecisionAbort", "undone"),
        ("undone", "DecisionAbort", "undone"),
        ("undone", "Udum", "unmarked"),
    ]);
    assert_eq!(legal, figure2);
    assert_eq!(t.rows.len(), 15, "F2: 3 states x 5 events");
}

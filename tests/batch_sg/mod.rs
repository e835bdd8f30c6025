//! The batch serialization-graph builder, kept test-only as the reference
//! `o2pc_sgraph::IncrementalSg` is checked against.
//!
//! It derives the SGs the obvious way — settle every inclusion decision in
//! a first pass over the finished history, then pair every two conflicting
//! accesses per (site, key) — so it is quadratic and only possible once
//! the history is complete, but easy to read against the paper's §5
//! definition. It keeps both readings of failed transactions:
//!
//! * `exposure_filter = true` — exposure semantics, the graph production
//!   code builds (`o2pc_sgraph::build_exposed_sgs`);
//! * `exposure_filter = false` — the literal complete-history reading,
//!   where a rolled-back subtransaction's forward operations count
//!   everywhere. DESIGN.md §2 explains why that reading breaks the theory;
//!   `tests/theory.rs` pins the finding.

use o2pc_common::{HistEventKind, History, Key, OpKind, SiteId, TxnId};
use o2pc_sgraph::GlobalSg;
use std::collections::HashMap;

/// Build the global SG of a finished history. Edges: `A → B` iff some
/// operation of `A` precedes and conflicts with some operation of `B` in
/// the site's history (same item, at least one write).
pub fn build_with(history: &History, exposure_filter: bool) -> GlobalSg {
    // Which local transactions committed, and where global transactions
    // were exposed (locally committed / committed) or merely rolled back.
    // For compensations, the event index of the last roll-back per site:
    // a `RolledBack` for a compensation only ever comes from crash recovery
    // (CTs never vote), meaning its earlier accesses at the site were
    // cleanly undone — and were observed by nothing durable — before the
    // compensation re-executes under the same id. Keeping them would merge
    // two physical executions into one node and manufacture cycles.
    let mut local_committed: HashMap<TxnId, bool> = HashMap::new();
    let mut exposed: HashMap<(TxnId, SiteId), bool> = HashMap::new();
    let mut comp_void: HashMap<(TxnId, SiteId), usize> = HashMap::new();
    for (idx, e) in history.events().iter().enumerate() {
        match e.txn {
            TxnId::Local(_) => {
                let entry = local_committed.entry(e.txn).or_insert(false);
                if matches!(e.kind, HistEventKind::Committed) {
                    *entry = true;
                }
            }
            TxnId::Global(_) => match e.kind {
                HistEventKind::LocallyCommitted | HistEventKind::Committed => {
                    exposed.insert((e.txn, e.site), true);
                }
                HistEventKind::RolledBack => {
                    exposed.entry((e.txn, e.site)).or_insert(false);
                }
                _ => {}
            },
            TxnId::Compensation(_) => {
                if matches!(e.kind, HistEventKind::RolledBack) {
                    comp_void.insert((e.txn, e.site), idx);
                }
            }
        }
    }
    let include = |txn: TxnId, site: SiteId| -> bool {
        match txn {
            TxnId::Local(_) => local_committed.get(&txn).copied().unwrap_or(false),
            // Under exposure semantics a global's forward accesses count
            // only where it was exposed; a global with no terminal event at
            // the site (in flight at the end of the recording, or a
            // hand-built test history) defaults to included.
            TxnId::Global(_) => {
                !exposure_filter || exposed.get(&(txn, site)).copied().unwrap_or(true)
            }
            TxnId::Compensation(_) => true,
        }
    };

    let mut gsg = GlobalSg::new();
    // Per site, per key: accesses in order (txn, kind).
    let mut per_site_key: HashMap<(SiteId, Key), Vec<(TxnId, OpKind)>> = HashMap::new();
    for (idx, e) in history.events().iter().enumerate() {
        if let HistEventKind::Access { kind, key, .. } = e.kind {
            if !include(e.txn, e.site) {
                continue;
            }
            if matches!(e.txn, TxnId::Compensation(_))
                && comp_void.get(&(e.txn, e.site)).is_some_and(|&rb| idx < rb)
            {
                continue; // voided by a crash before the re-execution
            }
            gsg.site_mut(e.site).add_node(e.txn);
            per_site_key
                .entry((e.site, key))
                .or_default()
                .push((e.txn, kind));
        }
    }

    for ((site, _key), accesses) in per_site_key {
        let sg = gsg.site_mut(site);
        for (i, &(a_txn, a_kind)) in accesses.iter().enumerate() {
            for &(b_txn, b_kind) in &accesses[i + 1..] {
                if a_txn == b_txn {
                    continue;
                }
                if a_kind == OpKind::Write || b_kind == OpKind::Write {
                    sg.add_edge(a_txn, b_txn);
                }
            }
        }
    }
    gsg
}

//! Detection of condition UDUM1 (§6.2).
//!
//! A site that is undone with respect to `T_i` may forget that marking only
//! when no transaction that accessed a locally-committed-wrt-`T_i` site can
//! still reach it (UDUM0). Detecting UDUM0 directly would need extra
//! messages; the paper instead detects the stronger, locally-observable
//! condition:
//!
//! > *UDUM1*: for each site in which `T_i` executes, there is a transaction
//! > that has also executed at that site while that site was undone with
//! > respect to `T_i`.
//!
//! By Lemma 4, UDUM1 implies UDUM0: because global transactions obey 2PL, a
//! transaction that has executed at every `T_i` site *after* the undo
//! "fences" the marking — any `T_j` that had accessed a locally-committed
//! site would have had to order before those fences everywhere.
//!
//! The tracker's inputs (the execution-site set of `T_i`, and which sites
//! saw a post-undo access) travel with existing messages in a real
//! deployment; the engine maintains the tracker centrally and the message
//! accounting of experiment E6 confirms no extra message rounds exist.

use o2pc_common::{GlobalTxnId, SiteId};
use std::collections::{BTreeMap, BTreeSet};

/// Tracks progress toward UDUM1 for every aborted global transaction.
#[derive(Clone, Debug, Default)]
pub struct UdumTracker {
    /// For each aborted transaction: its execution sites.
    exec_sites: BTreeMap<GlobalTxnId, BTreeSet<SiteId>>,
    /// For each aborted transaction: sites where some transaction executed
    /// while the site was undone with respect to it.
    fenced: BTreeMap<GlobalTxnId, BTreeSet<SiteId>>,
}

impl UdumTracker {
    /// New empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register the execution-site set of an aborted transaction (known to
    /// its coordinator; piggy-backed on the DECISION messages).
    pub fn register_aborted(&mut self, txn: GlobalTxnId, sites: impl IntoIterator<Item = SiteId>) {
        self.exec_sites.entry(txn).or_default().extend(sites);
    }

    /// Record that some transaction executed at `site` while `site` was
    /// undone with respect to `txn`. Returns `true` if this observation
    /// completes UDUM1 (rule R3 should now unmark `txn` everywhere).
    /// Once `txn` is [forgotten](Self::forget), it is unknown again.
    pub fn observe_access(&mut self, txn: GlobalTxnId, site: SiteId) -> bool {
        let Some(exec) = self.exec_sites.get(&txn) else {
            return false;
        };
        if !exec.contains(&site) {
            return false;
        }
        let fenced = self.fenced.entry(txn).or_default();
        fenced.insert(site) && fenced.len() == exec.len()
    }

    /// Sites of `txn` still missing a post-undo access.
    pub fn missing_sites(&self, txn: GlobalTxnId) -> Vec<SiteId> {
        let Some(exec) = self.exec_sites.get(&txn) else {
            return Vec::new();
        };
        let fenced = self.fenced.get(&txn);
        exec.iter()
            .filter(|s| fenced.is_none_or(|f| !f.contains(s)))
            .copied()
            .collect()
    }

    /// Drop all bookkeeping for `txn` (after R3 completed everywhere).
    pub fn forget(&mut self, txn: GlobalTxnId) {
        self.exec_sites.remove(&txn);
        self.fenced.remove(&txn);
    }

    /// Number of transactions still being tracked.
    pub fn tracked(&self) -> usize {
        self.exec_sites.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(i: u64) -> GlobalTxnId {
        GlobalTxnId(i)
    }

    fn s(i: u32) -> SiteId {
        SiteId(i)
    }

    #[test]
    fn fires_when_all_sites_fenced() {
        let mut u = UdumTracker::new();
        u.register_aborted(g(1), [s(0), s(1), s(2)]);
        assert!(!u.observe_access(g(1), s(0)));
        assert!(!u.observe_access(g(1), s(1)));
        assert_eq!(u.missing_sites(g(1)), vec![s(2)]);
        assert!(u.observe_access(g(1), s(2)), "third site completes UDUM1");
        assert!(u.missing_sites(g(1)).is_empty());
    }

    #[test]
    fn repeated_observations_do_not_double_count() {
        let mut u = UdumTracker::new();
        u.register_aborted(g(1), [s(0), s(1)]);
        assert!(!u.observe_access(g(1), s(0)));
        assert!(!u.observe_access(g(1), s(0)));
        assert_eq!(u.missing_sites(g(1)), vec![s(1)]);
    }

    #[test]
    fn observations_at_foreign_sites_ignored() {
        let mut u = UdumTracker::new();
        u.register_aborted(g(1), [s(0)]);
        assert!(
            !u.observe_access(g(1), s(9)),
            "s9 is not an execution site of T1"
        );
        assert!(u.observe_access(g(1), s(0)));
    }

    #[test]
    fn unknown_txn_ignored() {
        let mut u = UdumTracker::new();
        assert!(!u.observe_access(g(7), s(0)));
        assert!(u.missing_sites(g(7)).is_empty());
    }

    #[test]
    fn fires_only_once_and_forget_cleans_up() {
        let mut u = UdumTracker::new();
        u.register_aborted(g(1), [s(0)]);
        assert!(u.observe_access(g(1), s(0)));
        assert!(!u.observe_access(g(1), s(0)), "already fired");
        assert_eq!(u.tracked(), 1);
        u.forget(g(1));
        assert_eq!(u.tracked(), 0);
        assert!(!u.observe_access(g(1), s(0)), "forgotten: a no-op");
        assert_eq!(u.tracked(), 0);
    }

    #[test]
    fn single_site_transaction_fires_immediately() {
        let mut u = UdumTracker::new();
        u.register_aborted(g(2), [s(3)]);
        assert!(u.observe_access(g(2), s(3)));
    }
}

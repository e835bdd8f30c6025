//! The per-transaction accumulator `transmarks.j` and the R1 compatibility
//! check for protocols P1, P2 and the "simple" §6.2 variant.
//!
//! P1 restricts the sites a global transaction `T_j` may access: for every
//! `T_i` that marks any of them, either **all** of `T_j`'s sites are undone
//! with respect to `T_i`, or **all** are locally-committed-or-unmarked.
//! (P2 is the dual with locally-committed in the strict role.) The check is
//! evaluated incrementally, site by site, as subtransactions are spawned —
//! exactly the paper's R1 — using only the marks each site held *at access
//! time*, which is what `transmarks.j` accumulates.

use crate::sitemarks::SiteMarks;
use crate::state::MarkState;
use o2pc_common::GlobalTxnId;
use std::collections::BTreeMap;

/// Which complementary protocol governs subtransaction admission. Bare
/// O2PC and 2PL-2PC run none, and keep no marking state at all.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MarkingProtocol {
    /// P1: enforces stratification property S1.
    P1,
    /// P2: enforces stratification property S2 (dual of P1).
    P2,
    /// The simple protocol sketched at the end of §6.2: all sites must be
    /// undone with respect to the same transactions and locally-committed
    /// with respect to none. (Simplest, least concurrency.)
    Simple,
}

/// Why a subtransaction was rejected by R1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Incompatibility {
    /// The transaction whose markings clash.
    pub with: GlobalTxnId,
    /// Mark at the site being entered.
    pub site_mark: MarkState,
    /// Whether the clash can resolve by waiting (e.g. the new site's
    /// compensation has not completed yet, or its mark may be forgotten via
    /// UDUM) or only by aborting the global transaction.
    pub retryable: bool,
}

/// Per-transaction accumulated marking observations (`transmarks.j`).
#[derive(Clone, Debug, Default)]
pub struct TransMarks {
    /// Number of sites visited so far.
    visits: u32,
    /// For each `T_i`: how many visited sites were undone / locally
    /// committed with respect to it at visit time.
    undone: BTreeMap<GlobalTxnId, u32>,
    lc: BTreeMap<GlobalTxnId, u32>,
}

impl TransMarks {
    /// Fresh accumulator for a new global transaction.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sites visited so far.
    pub fn visits(&self) -> u32 {
        self.visits
    }

    /// The `T_i` set this transaction has seen undone marks for (the
    /// paper's `transmarks.j` under the simplified P1 implementation).
    pub fn undone_seen(&self) -> Vec<GlobalTxnId> {
        self.undone.keys().copied().collect()
    }

    /// R1: may `T_j` (whose observations are `self`) spawn a subtransaction
    /// at a site whose current marks are `site`? On success the observations
    /// are absorbed (`transmarks.j ← transmarks.j ∪ sitemarks.k`).
    pub fn check_and_absorb(
        &mut self,
        protocol: MarkingProtocol,
        site: &SiteMarks,
    ) -> Result<(), Incompatibility> {
        self.check(protocol, site).map(|()| self.absorb(site))
    }

    /// The compatibility check alone (used for the paper's early-check /
    /// late-revalidate compromise: check first, revalidate as the
    /// subtransaction's last action).
    pub fn check(
        &self,
        protocol: MarkingProtocol,
        site: &SiteMarks,
    ) -> Result<(), Incompatibility> {
        match protocol {
            MarkingProtocol::P1 => self.check_p1(site),
            MarkingProtocol::P2 => self.check_p2(site),
            MarkingProtocol::Simple => self.check_simple(site),
        }
    }

    /// Absorb a site's marks after a successful check.
    pub fn absorb(&mut self, site: &SiteMarks) {
        self.visits += 1;
        for (txn, mark) in site.iter() {
            match mark {
                MarkState::Undone => *self.undone.entry(txn).or_insert(0) += 1,
                MarkState::LocallyCommitted => *self.lc.entry(txn).or_insert(0) += 1,
                MarkState::Unmarked => {}
            }
        }
    }

    /// P1: for each `T_i`, "undone with respect to `T_i`" must hold at all
    /// of `T_j`'s sites or at none.
    fn check_p1(&self, site: &SiteMarks) -> Result<(), Incompatibility> {
        // (a) If all previous sites were undone wrt txn, the new site must
        // be too. A mix already recorded is tolerated: the marks were partly
        // forgotten (UDUM) between visits, which Lemma 4 makes safe.
        for (&txn, &cnt) in &self.undone {
            debug_assert!(cnt <= self.visits);
            let all = cnt == self.visits && self.visits > 0;
            if all && site.mark_of(txn) != MarkState::Undone {
                return Err(Incompatibility {
                    with: txn,
                    site_mark: site.mark_of(txn),
                    // The new site may yet become undone (its CT_ik may
                    // still be running) — retryable in principle; the
                    // engine decides based on whether T_i executed here.
                    retryable: true,
                });
            }
        }
        // (b) If the new site is undone wrt some T_i, every previous site
        // must have been undone wrt T_i at visit time.
        for txn in site.undone() {
            let seen = self.undone.get(&txn).copied().unwrap_or(0);
            if seen < self.visits {
                return Err(Incompatibility {
                    with: txn,
                    site_mark: MarkState::Undone,
                    // "only aborting the corresponding global transaction
                    // can resolve the situation" — unless this site's mark
                    // is forgotten via UDUM first, so the engine may retry a
                    // bounded number of times before aborting.
                    retryable: true,
                });
            }
        }
        Ok(())
    }

    /// P2 (dual): "locally-committed with respect to `T_i`" must hold at all
    /// of `T_j`'s sites or at none.
    fn check_p2(&self, site: &SiteMarks) -> Result<(), Incompatibility> {
        for (&txn, &cnt) in &self.lc {
            if cnt == self.visits
                && self.visits > 0
                && site.mark_of(txn) != MarkState::LocallyCommitted
            {
                return Err(Incompatibility {
                    with: txn,
                    site_mark: site.mark_of(txn),
                    retryable: true,
                });
            }
        }
        for txn in site.locally_committed() {
            let seen = self.lc.get(&txn).copied().unwrap_or(0);
            if seen < self.visits {
                return Err(Incompatibility {
                    with: txn,
                    site_mark: MarkState::LocallyCommitted,
                    retryable: true,
                });
            }
        }
        Ok(())
    }

    /// Simple protocol: all sites undone with respect to the same
    /// transactions, locally-committed with respect to none.
    fn check_simple(&self, site: &SiteMarks) -> Result<(), Incompatibility> {
        if let Some(txn) = site.locally_committed().next() {
            return Err(Incompatibility {
                with: txn,
                site_mark: MarkState::LocallyCommitted,
                retryable: true,
            });
        }
        // Exact undone-set equality with everything seen so far.
        self.check_p1(site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::MarkEvent;

    fn g(i: u64) -> GlobalTxnId {
        GlobalTxnId(i)
    }

    fn undone_site(txns: &[u64]) -> SiteMarks {
        let mut sm = SiteMarks::new();
        for &t in txns {
            sm.apply(g(t), MarkEvent::VoteAbort).unwrap();
        }
        sm
    }

    fn lc_site(txns: &[u64]) -> SiteMarks {
        let mut sm = SiteMarks::new();
        for &t in txns {
            sm.apply(g(t), MarkEvent::VoteCommit).unwrap();
        }
        sm
    }

    #[test]
    fn p1_accepts_uniform_unmarked() {
        let mut tm = TransMarks::new();
        for _ in 0..3 {
            tm.check_and_absorb(MarkingProtocol::P1, &SiteMarks::new())
                .unwrap();
        }
        assert_eq!(tm.visits(), 3);
    }

    #[test]
    fn p1_accepts_uniform_undone() {
        let mut tm = TransMarks::new();
        tm.check_and_absorb(MarkingProtocol::P1, &undone_site(&[5]))
            .unwrap();
        tm.check_and_absorb(MarkingProtocol::P1, &undone_site(&[5]))
            .unwrap();
        assert_eq!(tm.undone_seen(), vec![g(5)]);
    }

    #[test]
    fn p1_rejects_undone_then_unmarked() {
        let mut tm = TransMarks::new();
        tm.check_and_absorb(MarkingProtocol::P1, &undone_site(&[5]))
            .unwrap();
        let err = tm
            .check(MarkingProtocol::P1, &SiteMarks::new())
            .unwrap_err();
        assert_eq!(err.with, g(5));
        assert_eq!(err.site_mark, MarkState::Unmarked);
    }

    #[test]
    fn p1_rejects_unmarked_then_undone() {
        let mut tm = TransMarks::new();
        tm.check_and_absorb(MarkingProtocol::P1, &SiteMarks::new())
            .unwrap();
        let err = tm
            .check(MarkingProtocol::P1, &undone_site(&[5]))
            .unwrap_err();
        assert_eq!(err.with, g(5));
        assert_eq!(err.site_mark, MarkState::Undone);
    }

    #[test]
    fn p1_allows_locally_committed_and_unmarked_mix() {
        // The P1 simplification: LC and unmarked are interchangeable.
        let mut tm = TransMarks::new();
        tm.check_and_absorb(MarkingProtocol::P1, &lc_site(&[5]))
            .unwrap();
        tm.check_and_absorb(MarkingProtocol::P1, &SiteMarks::new())
            .unwrap();
        tm.check_and_absorb(MarkingProtocol::P1, &lc_site(&[5, 7]))
            .unwrap();
    }

    #[test]
    fn p1_rejects_lc_then_undone_for_same_txn() {
        let mut tm = TransMarks::new();
        tm.check_and_absorb(MarkingProtocol::P1, &lc_site(&[5]))
            .unwrap();
        let err = tm
            .check(MarkingProtocol::P1, &undone_site(&[5]))
            .unwrap_err();
        assert_eq!(err.with, g(5));
    }

    #[test]
    fn p2_duality() {
        let mut tm = TransMarks::new();
        tm.check_and_absorb(MarkingProtocol::P2, &lc_site(&[5]))
            .unwrap();
        // All sites must be LC wrt 5 now.
        assert!(tm.check(MarkingProtocol::P2, &SiteMarks::new()).is_err());
        assert!(tm.check(MarkingProtocol::P2, &lc_site(&[5])).is_ok());
        // Undone and unmarked mix freely under P2.
        let mut tm2 = TransMarks::new();
        tm2.check_and_absorb(MarkingProtocol::P2, &undone_site(&[5]))
            .unwrap();
        tm2.check_and_absorb(MarkingProtocol::P2, &SiteMarks::new())
            .unwrap();
    }

    #[test]
    fn p2_rejects_fresh_lc_after_non_lc_visit() {
        let mut tm = TransMarks::new();
        tm.check_and_absorb(MarkingProtocol::P2, &SiteMarks::new())
            .unwrap();
        let err = tm.check(MarkingProtocol::P2, &lc_site(&[5])).unwrap_err();
        assert_eq!(err.with, g(5));
        assert_eq!(err.site_mark, MarkState::LocallyCommitted);
    }

    #[test]
    fn simple_protocol_rejects_any_lc() {
        let mut tm = TransMarks::new();
        let err = tm
            .check(MarkingProtocol::Simple, &lc_site(&[5]))
            .unwrap_err();
        assert_eq!(err.with, g(5));
        // Undone uniformity still required.
        tm.check_and_absorb(MarkingProtocol::Simple, &undone_site(&[3]))
            .unwrap();
        assert!(tm
            .check(MarkingProtocol::Simple, &undone_site(&[3]))
            .is_ok());
        assert!(tm
            .check(MarkingProtocol::Simple, &SiteMarks::new())
            .is_err());
    }

    #[test]
    fn check_without_absorb_is_pure() {
        let tm = TransMarks::new();
        let site = undone_site(&[1]);
        assert!(tm.check(MarkingProtocol::P1, &site).is_ok());
        assert_eq!(tm.visits(), 0, "check must not mutate");
    }
}

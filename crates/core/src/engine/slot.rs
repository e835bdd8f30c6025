//! One record per site: whether it runs, what dies with it, and what
//! outlives its crashes.

use super::PendingAdmission;
use crate::msg::Msg;
use o2pc_common::{ExecId, FastHashMap, GlobalTxnId, SimTime, SiteId};
use o2pc_compensation::CompensationPlan;
use o2pc_protocol::TerminationRound;
use o2pc_site::{CrashedSite, Site};
use std::collections::{BTreeSet, VecDeque};

/// Everything the engine keeps about one site. A crash or a restart is one
/// transition of `state`; the rest of the slot is what no crash touches.
#[derive(Default)]
pub(crate) struct SiteSlot {
    pub(crate) state: SiteState,
    /// Compensations owed here: each `CT_ij` from the abort decision that
    /// started it until it commits, across deadlock roll-backs and crashes
    /// (persistence of compensation, §3.2).
    pub(crate) pending_comp: FastHashMap<GlobalTxnId, CompensationPlan>,
    /// The termination round this site runs per transaction it is in doubt
    /// about, until an answer resolves it or the site leaves doubt.
    pub(crate) term_rounds: FastHashMap<GlobalTxnId, TerminationRound>,
    /// Transactions with a live termination-timer chain here. Exactly one
    /// chain runs while the site is in doubt, so a lost `TermReq` or
    /// `TermAnswer` re-fires instead of blocking forever.
    pub(crate) term_armed: BTreeSet<GlobalTxnId>,
    /// The admission gate of the coordinator hosted here (only with
    /// `SystemConfig::admission_window`): global arrivals waiting, FIFO,
    /// for one of the transactions `admitted` here to complete.
    pub(crate) admit_q: VecDeque<PendingAdmission>,
    pub(crate) admitted: usize,
}

/// Whether a site runs.
#[derive(Default)]
pub(crate) enum SiteState {
    Up(Box<LiveSite>),
    /// Crashed, with what survived the crash.
    Down(CrashedSite),
    /// Crashed, and its log could not be reopened: nothing to recover from.
    #[default]
    Lost,
}

/// A running site and what dies with it.
pub(crate) struct LiveSite {
    pub(crate) site: Site,
    /// Durable mode only: promises held back until a flush completion
    /// covers their ticket, in append order.
    pub(crate) parked: Vec<Parked>,
    /// The highest ticket a flush completion (or an inline sync) reported
    /// durable: promises at or below it go out at once.
    pub(crate) covered: u64,
    /// The ticket the live `WalFlush` timer carries, if one is armed; any
    /// other timer of the site's is stale (see `TimerEvent::WalFlush`).
    pub(crate) flush_armed: Option<u64>,
    /// Running locals' submit times, which their latency counts from.
    pub(crate) local_starts: FastHashMap<ExecId, SimTime>,
}

/// A promise held back until a flush completion covers `ticket`.
pub(crate) struct Parked {
    pub(crate) ticket: u64,
    /// When it parked; from the flush point that sealed its bytes on, when
    /// that was. The two waits of a durable promise are told apart here.
    pub(crate) since: SimTime,
    pub(crate) to: SiteId,
    pub(crate) msg: Msg,
}

impl SiteState {
    /// A site just opened or rebuilt: everything its log holds is on disk,
    /// and no completion will ever report it.
    pub(crate) fn up(site: Site) -> Self {
        SiteState::Up(Box::new(LiveSite {
            covered: site.wal().durable_ticket(),
            site,
            parked: Vec::new(),
            flush_armed: None,
            local_starts: FastHashMap::default(),
        }))
    }

    /// The site and what dies with it, if it is up.
    pub(crate) fn live(&self) -> Option<&LiveSite> {
        match self {
            SiteState::Up(live) => Some(live),
            _ => None,
        }
    }

    pub(crate) fn live_mut(&mut self) -> Option<&mut LiveSite> {
        match self {
            SiteState::Up(live) => Some(live),
            _ => None,
        }
    }

    pub(crate) fn site(&self) -> Option<&Site> {
        self.live().map(|live| &live.site)
    }

    pub(crate) fn site_mut(&mut self) -> Option<&mut Site> {
        self.live_mut().map(|live| &mut live.site)
    }
}

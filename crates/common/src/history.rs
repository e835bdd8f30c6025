//! Recorded execution histories.
//!
//! Every site emits an ordered stream of events (operation accesses plus
//! transaction lifecycle transitions). The concatenation per site is exactly
//! the *complete local history* of the paper's §5; `o2pc-sgraph` derives the
//! local and global serialization graphs from it.
//!
//! Note how roll-backs surface: when a site rolls back subtransaction `T_ij`
//! from the log, the undo writes are recorded as accesses of
//! `TxnId::Compensation(i)` — the paper models standard roll-back "as a
//! special case of a compensating transaction" (§3.2), and making that choice
//! in the history recorder is what lets a single SG builder serve both cases.

use crate::ids::{SiteId, TxnId};
use crate::ops::OpKind;
use crate::time::SimTime;
use crate::value::Key;

/// A consumer of history events.
///
/// The engine's hot path records every access and lifecycle transition; what
/// happens to those events is pluggable. [`History`] is the archival sink
/// (every event retained for offline audit), [`CountingSink`] is the
/// perf-run sink (constant memory, no allocation), and `o2pc-sgraph`'s
/// incremental builder is a sink that folds each event straight into the
/// serialization graphs.
pub trait HistorySink {
    /// Consume one event. Events arrive in per-site virtual-time order.
    fn record(&mut self, ev: HistEvent);

    /// Convenience: record an access event.
    fn record_access(
        &mut self,
        site: SiteId,
        txn: TxnId,
        kind: OpKind,
        key: Key,
        read_from: Option<TxnId>,
        time: SimTime,
    ) {
        self.record(HistEvent {
            site,
            txn,
            kind: HistEventKind::Access {
                kind,
                key,
                read_from,
            },
            time,
        });
    }
}

/// A sink that retains nothing: counts events and folds them into a running
/// digest. Lets perf runs skip history accumulation entirely while keeping
/// the recording path (and its determinism fingerprint) intact.
#[derive(Clone, Copy, Debug, Default)]
pub struct CountingSink {
    /// Number of events consumed.
    pub events: u64,
    digest: u64,
}

impl CountingSink {
    /// New empty sink.
    pub fn new() -> Self {
        Self {
            events: 0,
            digest: FNV_OFFSET,
        }
    }

    /// Running digest over the consumed events — identical to
    /// [`History::digest`] of the same event stream.
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

impl HistorySink for CountingSink {
    fn record(&mut self, ev: HistEvent) {
        self.events += 1;
        self.digest = fold_event(self.digest, &ev);
    }
}

impl HistorySink for History {
    fn record(&mut self, ev: HistEvent) {
        self.push(ev);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv_word(mut h: u64, w: u64) -> u64 {
    for b in w.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[inline]
fn fnv_txn(mut h: u64, t: TxnId) -> u64 {
    match t {
        TxnId::Global(g) => {
            h = fnv_word(h, 1);
            fnv_word(h, g.0)
        }
        TxnId::Compensation(g) => {
            h = fnv_word(h, 2);
            fnv_word(h, g.0)
        }
        TxnId::Local(l) => {
            h = fnv_word(h, 3);
            h = fnv_word(h, l.site.0 as u64);
            fnv_word(h, l.seq)
        }
    }
}

/// Fold one event into an FNV-1a digest. The encoding is a stable,
/// injective flattening of every field — two digests agree only when the
/// event streams are byte-identical (up to hash collision).
fn fold_event(mut h: u64, ev: &HistEvent) -> u64 {
    h = fnv_word(h, ev.site.0 as u64);
    h = fnv_txn(h, ev.txn);
    h = fnv_word(h, ev.time.0);
    match ev.kind {
        HistEventKind::Begin => fnv_word(h, 10),
        HistEventKind::Access {
            kind,
            key,
            read_from,
        } => {
            h = fnv_word(h, 11);
            h = fnv_word(h, if kind == OpKind::Write { 1 } else { 0 });
            h = fnv_word(h, key.0);
            match read_from {
                None => fnv_word(h, 0),
                Some(src) => {
                    h = fnv_word(h, 1);
                    fnv_txn(h, src)
                }
            }
        }
        HistEventKind::LocallyCommitted => fnv_word(h, 12),
        HistEventKind::Committed => fnv_word(h, 13),
        HistEventKind::RolledBack => fnv_word(h, 14),
        HistEventKind::Compensated => fnv_word(h, 15),
    }
}

/// What happened in one history event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HistEventKind {
    /// Transaction became active at the site.
    Begin,
    /// One read or write access.
    Access {
        /// Read/write classification.
        kind: OpKind,
        /// Item accessed.
        key: Key,
        /// For reads: the transaction whose write produced the value read
        /// (the *reads-from* relation, needed for the Theorem 2 audit).
        read_from: Option<TxnId>,
    },
    /// The site voted to commit and (under O2PC) released the locks: the
    /// transaction is *locally committed* here.
    LocallyCommitted,
    /// Final commit at this site.
    Committed,
    /// Rolled back from the log at this site.
    RolledBack,
    /// A compensating subtransaction completed at this site.
    Compensated,
}

/// One event in a site's history.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistEvent {
    /// Site at which the event occurred.
    pub site: SiteId,
    /// Serialization-graph node the event belongs to.
    pub txn: TxnId,
    /// Event payload.
    pub kind: HistEventKind,
    /// Virtual time of the event.
    pub time: SimTime,
}

/// A multi-site execution history: per-site ordered event sequences.
#[derive(Clone, Debug, Default)]
pub struct History {
    events: Vec<HistEvent>,
}

impl History {
    /// New empty history, pre-sized for a typical engine run (a few
    /// thousand events) so recording never pays the early doubling steps.
    pub fn new() -> Self {
        History {
            events: Vec::with_capacity(1024),
        }
    }

    /// Append an event. Events must be appended in global virtual-time order
    /// per site (the engine guarantees this; a debug assertion checks it).
    pub fn push(&mut self, ev: HistEvent) {
        #[cfg(debug_assertions)]
        if let Some(last) = self.events.iter().rev().find(|e| e.site == ev.site) {
            debug_assert!(
                last.time <= ev.time,
                "per-site history must be time-ordered"
            );
        }
        self.events.push(ev);
    }

    /// Convenience: record an access.
    pub fn access(
        &mut self,
        site: SiteId,
        txn: TxnId,
        kind: OpKind,
        key: Key,
        read_from: Option<TxnId>,
        time: SimTime,
    ) {
        self.push(HistEvent {
            site,
            txn,
            kind: HistEventKind::Access {
                kind,
                key,
                read_from,
            },
            time,
        });
    }

    /// All events in insertion order.
    pub fn events(&self) -> &[HistEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The set of sites appearing in the history, ordered.
    pub fn sites(&self) -> Vec<SiteId> {
        let mut s: Vec<SiteId> = self.events.iter().map(|e| e.site).collect();
        s.sort_unstable();
        s.dedup();
        s
    }

    /// The set of transactions appearing in the history, ordered.
    pub fn txns(&self) -> Vec<TxnId> {
        let mut t: Vec<TxnId> = self.events.iter().map(|e| e.txn).collect();
        t.sort_unstable();
        t.dedup();
        t
    }

    /// Merge another history into this one (used when sites record locally
    /// and the engine stitches them together). Events keep per-site order.
    pub fn merge(&mut self, other: History) {
        self.events.extend(other.events);
    }

    /// Order-sensitive FNV-1a digest of the full event stream. Two runs
    /// producing the same digest recorded the same events in the same order
    /// — the determinism fingerprint the golden tests pin down.
    pub fn digest(&self) -> u64 {
        self.events.iter().fold(FNV_OFFSET, fold_event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{GlobalTxnId, LocalTxnId};

    fn ev(site: u32, txn: TxnId, t: u64) -> HistEvent {
        HistEvent {
            site: SiteId(site),
            txn,
            kind: HistEventKind::Begin,
            time: SimTime(t),
        }
    }

    #[test]
    fn push_and_query() {
        let mut h = History::new();
        assert!(h.is_empty());
        let t1 = TxnId::Global(GlobalTxnId(1));
        let t2 = TxnId::Local(LocalTxnId {
            site: SiteId(0),
            seq: 0,
        });
        h.push(ev(0, t1, 10));
        h.push(ev(1, t1, 12));
        h.push(ev(0, t2, 15));
        assert_eq!(h.len(), 3);
        assert_eq!(h.sites(), vec![SiteId(0), SiteId(1)]);
        assert_eq!(h.txns().len(), 2);
    }

    #[test]
    fn access_records_reads_from() {
        let mut h = History::new();
        let writer = TxnId::Global(GlobalTxnId(1));
        let reader = TxnId::Global(GlobalTxnId(2));
        h.access(SiteId(0), writer, OpKind::Write, Key(5), None, SimTime(1));
        h.access(
            SiteId(0),
            reader,
            OpKind::Read,
            Key(5),
            Some(writer),
            SimTime(2),
        );
        match h.events()[1].kind {
            HistEventKind::Access {
                read_from,
                kind,
                key,
            } => {
                assert_eq!(read_from, Some(writer));
                assert_eq!(kind, OpKind::Read);
                assert_eq!(key, Key(5));
            }
            _ => panic!("expected access"),
        }
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let t1 = TxnId::Global(GlobalTxnId(1));
        let t2 = TxnId::Global(GlobalTxnId(2));
        let mut a = History::new();
        a.access(SiteId(0), t1, OpKind::Write, Key(1), None, SimTime(1));
        a.access(SiteId(0), t2, OpKind::Read, Key(1), Some(t1), SimTime(2));
        let mut b = History::new();
        b.access(SiteId(0), t1, OpKind::Write, Key(1), None, SimTime(1));
        b.access(SiteId(0), t2, OpKind::Read, Key(1), Some(t1), SimTime(2));
        assert_eq!(a.digest(), b.digest());
        // Different order (via different sites to satisfy per-site time
        // monotonicity) → different digest.
        let mut c = History::new();
        c.access(SiteId(1), t2, OpKind::Read, Key(1), Some(t1), SimTime(2));
        c.access(SiteId(0), t1, OpKind::Write, Key(1), None, SimTime(1));
        assert_ne!(a.digest(), c.digest());
        // Different content → different digest.
        let mut d = History::new();
        d.access(SiteId(0), t1, OpKind::Write, Key(2), None, SimTime(1));
        d.access(SiteId(0), t2, OpKind::Read, Key(1), Some(t1), SimTime(2));
        assert_ne!(a.digest(), d.digest());
    }

    #[test]
    fn counting_sink_matches_history_digest() {
        let t1 = TxnId::Global(GlobalTxnId(1));
        let mut h = History::new();
        let mut c = CountingSink::new();
        for (sink_ev, time) in [(HistEventKind::Begin, 1), (HistEventKind::Committed, 2)] {
            let ev = HistEvent {
                site: SiteId(0),
                txn: t1,
                kind: sink_ev,
                time: SimTime(time),
            };
            h.record(ev);
            c.record(ev);
        }
        assert_eq!(c.events, h.len() as u64);
        assert_eq!(c.digest(), h.digest());
    }

    #[test]
    fn merge_concatenates() {
        let mut a = History::new();
        let mut b = History::new();
        let t = TxnId::Global(GlobalTxnId(0));
        a.push(ev(0, t, 1));
        b.push(ev(1, t, 2));
        a.merge(b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    #[cfg(debug_assertions)]
    fn out_of_order_same_site_panics_in_debug() {
        let mut h = History::new();
        let t = TxnId::Global(GlobalTxnId(0));
        h.push(ev(0, t, 10));
        h.push(ev(0, t, 5));
    }
}

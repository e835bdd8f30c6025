//! Pluggable history recording for the engine's hot path.
//!
//! Every access and lifecycle transition a site emits flows through one
//! [`Recorder`]. What happens to the event is configuration, not code:
//!
//! * the [`CountingSink`] always runs — constant memory, no allocation —
//!   so every run (even with `record_history` off) ends with an event
//!   count and an order-sensitive digest for determinism checks;
//! * the archival [`History`] is kept only when
//!   `SystemConfig::record_history` is set (the default), for post-hoc
//!   serialization-graph audits and experiment plots;
//! * the [`IncrementalSg`] is maintained only when
//!   `SystemConfig::live_audit_graph` is set: it folds each event straight
//!   into the exposed serialization graphs, so an oracle can audit the run
//!   without replaying the whole history afterwards.

use o2pc_common::{CountingSink, HistEvent, History, HistorySink};
use o2pc_sgraph::IncrementalSg;

/// The engine's history sink: counting always, archival and live graph
/// maintenance by configuration.
#[derive(Clone, Debug)]
pub(crate) struct Recorder {
    /// Full event archive (`None` when `record_history` is off).
    pub(crate) history: Option<History>,
    /// Counter + digest, fed only when the archive is *not* kept (the
    /// archive can answer both on demand; folding the digest on every
    /// event would tax the hot path twice).
    pub(crate) counting: CountingSink,
    /// Incrementally-maintained exposed serialization graphs (`None` when
    /// `live_audit_graph` is off).
    pub(crate) live_sg: Option<IncrementalSg>,
}

impl Recorder {
    pub(crate) fn new(record_history: bool, live_audit_graph: bool) -> Self {
        Recorder {
            history: record_history.then(History::new),
            counting: CountingSink::new(),
            live_sg: live_audit_graph.then(IncrementalSg::default),
        }
    }
}

impl HistorySink for Recorder {
    fn record(&mut self, ev: HistEvent) {
        if let Some(sg) = &mut self.live_sg {
            sg.observe(ev);
        }
        match &mut self.history {
            Some(h) => h.push(ev),
            None => self.counting.record(ev),
        }
    }
}

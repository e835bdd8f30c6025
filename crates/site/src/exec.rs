//! Per-execution state at a site.

use o2pc_common::{CommonError, ExecId, Op, Program, Value};

/// Lifecycle phase of one execution at a site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecPhase {
    /// Executing its operation program.
    Running,
    /// Program exhausted; a subtransaction in this phase has been acked to
    /// its coordinator and awaits VOTE-REQ (a local transaction commits
    /// immediately instead).
    Completed,
    /// A semantic failure stopped the program (e.g. `Reserve` on an
    /// exhausted item); the execution holds its locks until rolled back.
    Failed,
    /// Voted yes under the hold-writes policy: write locks retained until
    /// the coordinator's decision.
    Prepared,
}

/// Outcome of executing (or attempting) the next operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpResult {
    /// The operation executed. `value` carries the result of a read;
    /// `finished` is true when the program is now exhausted.
    Done {
        /// Value read (None for mutations).
        value: Option<Value>,
        /// Program exhausted after this operation.
        finished: bool,
    },
    /// The operation's lock request was queued; the execution is parked and
    /// will be resumed when the lock manager wakes it.
    Blocked,
    /// A semantic failure: the program stops; the caller decides whether to
    /// roll back now (local transaction) or at vote time (subtransaction).
    Failed(CommonError),
}

/// One execution's program and progress.
#[derive(Clone, Debug)]
pub struct ExecState {
    /// The execution's identity.
    pub exec: ExecId,
    /// Operation program (shared with whoever handed it over).
    pub ops: Program,
    /// Next operation index.
    pub pc: usize,
    /// Phase.
    pub phase: ExecPhase,
    /// The semantic error that moved the execution to `Failed`, if any.
    pub error: Option<CommonError>,
    /// When the execution entered the log's in-flight set, as the site's
    /// running count: at its `Begin`, or — for a compensation re-run after
    /// a roll-back, whose `Begin` recovery ignores — at its first write.
    /// `None` until then. Orders the executions a checkpoint carries.
    pub entered: Option<u64>,
}

impl ExecState {
    /// Fresh execution over a program.
    pub fn new(exec: ExecId, ops: Program) -> Self {
        let phase = if ops.is_empty() {
            ExecPhase::Completed
        } else {
            ExecPhase::Running
        };
        ExecState {
            exec,
            ops,
            pc: 0,
            phase,
            error: None,
            entered: None,
        }
    }

    /// The operation the execution is currently at, if any.
    pub fn current_op(&self) -> Option<Op> {
        self.ops.get(self.pc).copied()
    }

    /// Remaining operations (including the current one).
    pub fn remaining(&self) -> usize {
        self.ops.len().saturating_sub(self.pc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2pc_common::{GlobalTxnId, Key};

    #[test]
    fn lifecycle_fields() {
        let e = ExecState::new(
            ExecId::Sub(GlobalTxnId(1)),
            Program::from([Op::Read(Key(1)), Op::Add(Key(1), 2)]),
        );
        assert_eq!(e.phase, ExecPhase::Running);
        assert_eq!(e.current_op(), Some(Op::Read(Key(1))));
        assert_eq!(e.remaining(), 2);
    }

    #[test]
    fn empty_program_is_immediately_completed() {
        let e = ExecState::new(ExecId::Sub(GlobalTxnId(1)), Program::from([]));
        assert_eq!(e.phase, ExecPhase::Completed);
        assert_eq!(e.current_op(), None);
        assert_eq!(e.remaining(), 0);
    }
}

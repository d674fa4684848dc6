//! Error types for the machine simulator.

use core::fmt;

use crate::ids::{CeId, CounterId};

/// Errors raised while building or running a simulated machine.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MachineError {
    /// The machine configuration is internally inconsistent.
    InvalidConfig(String),
    /// A program referenced a CE outside the configured machine.
    NoSuchCe(CeId),
    /// A program referenced an undeclared scheduling counter.
    NoSuchCounter(CounterId),
    /// A program is malformed (e.g. consumes prefetch data that was never
    /// armed, or nests loops deeper than the supported depth).
    BadProgram { ce: CeId, reason: String },
    /// The simulation exceeded its cycle budget without completing —
    /// a genuinely slow run (the forward-progress watchdog catches true
    /// deadlocks before the budget runs out; see [`MachineError::Deadlock`]).
    CycleLimitExceeded { limit: u64 },
    /// The forward-progress watchdog decided the machine can never
    /// finish: either no subsystem has a future event while work remains,
    /// or every live CE sat in a synchronization wait across repeated
    /// checks. The report captures the machine state at detection.
    Deadlock { report: Box<HangReport> },
    /// A CE's retry controller exhausted its budget on one global-memory
    /// operation (persistent drops, NACKs, or an offline module): the
    /// machine cannot make that operation complete.
    Faulted { ce: CeId, reason: String },
    /// A machine snapshot could not be written, or could not be restored:
    /// wrong magic/version, torn or corrupted payload, or state that does
    /// not match the machine's configuration. Restore never panics on bad
    /// bytes — it returns this.
    Snapshot(String),
}

/// Machine state captured by the forward-progress watchdog at the moment
/// it declared a deadlock: who is waiting on what, and what is in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HangReport {
    /// Machine cycle at detection.
    pub at_cycle: u64,
    /// What tripped the watchdog: `"event starvation"` (no subsystem has
    /// a future event) or `"synchronization stall"` (every live CE stuck
    /// in a sync wait across repeated checks).
    pub kind: String,
    /// Engine state of every unfinished CE, as `(ce index, state)`.
    pub ces: Vec<(usize, String)>,
    /// How many of those CEs are blocked in barrier/counter/sync waits.
    pub barrier_waiters: usize,
    /// Packets in flight on the forward (CE → memory) network.
    pub fwd_in_flight: usize,
    /// Packets in flight on the reverse (memory → CE) network.
    pub rev_in_flight: usize,
    /// Queued requests per global-memory module, `(module, depth)`,
    /// non-empty modules only.
    pub module_queues: Vec<(usize, usize)>,
    /// Global-memory operations still tracked by CE retry controllers.
    pub pending_retries: u64,
}

impl fmt::Display for HangReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "hang at cycle {} ({}): {} unfinished CE(s), {} in sync waits, \
             {} fwd / {} rev packets in flight, {} pending retries",
            self.at_cycle,
            self.kind,
            self.ces.len(),
            self.barrier_waiters,
            self.fwd_in_flight,
            self.rev_in_flight,
            self.pending_retries,
        )?;
        for (ce, state) in &self.ces {
            writeln!(f, "  ce[{ce}]: {state}")?;
        }
        if !self.module_queues.is_empty() {
            write!(f, "  module queues:")?;
            for (m, depth) in &self.module_queues {
                write!(f, " [{m}]={depth}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::InvalidConfig(msg) => write!(f, "invalid machine configuration: {msg}"),
            MachineError::NoSuchCe(ce) => write!(f, "no such CE: {ce}"),
            MachineError::NoSuchCounter(c) => write!(f, "no such scheduling counter: {c}"),
            MachineError::BadProgram { ce, reason } => {
                write!(f, "bad program on {ce}: {reason}")
            }
            MachineError::CycleLimitExceeded { limit } => {
                write!(f, "simulation exceeded {limit} cycles without completing")
            }
            MachineError::Deadlock { report } => {
                write!(f, "machine deadlocked: {report}")
            }
            MachineError::Faulted { ce, reason } => {
                write!(f, "unrecoverable fault on {ce}: {reason}")
            }
            MachineError::Snapshot(msg) => write!(f, "snapshot error: {msg}"),
        }
    }
}

impl std::error::Error for MachineError {}

/// Convenient result alias for machine operations.
pub type Result<T> = std::result::Result<T, MachineError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_nonempty() {
        let errs: Vec<MachineError> = vec![
            MachineError::InvalidConfig("x".into()),
            MachineError::NoSuchCe(CeId(99)),
            MachineError::NoSuchCounter(CounterId(3)),
            MachineError::BadProgram {
                ce: CeId(0),
                reason: "oops".into(),
            },
            MachineError::CycleLimitExceeded { limit: 10 },
            MachineError::Deadlock {
                report: Box::new(sample_report()),
            },
            MachineError::Faulted {
                ce: CeId(3),
                reason: "request seq 9 failed after 17 attempts".into(),
            },
            MachineError::Snapshot("payload checksum mismatch".into()),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    fn sample_report() -> HangReport {
        HangReport {
            at_cycle: 40_960,
            kind: "synchronization stall".into(),
            ces: vec![
                (0, "GlobalBarrier(poll)".into()),
                (8, "AwaitCounter".into()),
            ],
            barrier_waiters: 2,
            fwd_in_flight: 1,
            rev_in_flight: 0,
            module_queues: vec![(3, 2)],
            pending_retries: 1,
        }
    }

    #[test]
    fn hang_report_display_names_every_waiter() {
        let r = sample_report();
        let text = r.to_string();
        assert!(text.contains("cycle 40960"));
        assert!(text.contains("ce[0]: GlobalBarrier(poll)"));
        assert!(text.contains("ce[8]: AwaitCounter"));
        assert!(text.contains("[3]=2"));
        let e = MachineError::Deadlock {
            report: Box::new(r),
        };
        assert!(e.to_string().contains("deadlocked"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MachineError>();
    }
}

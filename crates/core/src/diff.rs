//! Online differential checker against the in-order golden model.
//!
//! A [`DiffChecker`] wraps any [`CommitOracle`] (normally an
//! [`InOrderModel`](ss_oracle::InOrderModel) over a fresh copy of the
//! same trace the pipeline consumes) and is attached to a
//! [`Simulator`](crate::Simulator) with
//! [`attach_diff_checker`](crate::Simulator::attach_diff_checker). Every
//! time the pipeline commits a µ-op, the checker pulls the next expected
//! record from the oracle and compares content — seq (commit-order
//! index), pc, µ-op kind, destination register — never timing. The first
//! mismatch aborts the run with
//! [`SimError::Divergence`](ss_types::SimError::Divergence) carrying the
//! last N commits (the `commit_log_window` ring) and a dump of in-flight
//! scheduler/replay state.
//!
//! The check is O(1) per commit and O(window) in memory, so it can stay
//! on during full-length runs.

use ss_types::commit::{CommitOracle, CommitRecord};

/// Compares the pipeline's commit stream against a golden model, one
/// record at a time.
pub struct DiffChecker {
    oracle: Box<dyn CommitOracle + Send>,
    verified: u64,
}

impl std::fmt::Debug for DiffChecker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiffChecker")
            .field("verified", &self.verified)
            .finish_non_exhaustive()
    }
}

impl DiffChecker {
    /// Wraps a reference model.
    pub fn new(oracle: Box<dyn CommitOracle + Send>) -> Self {
        DiffChecker {
            oracle,
            verified: 0,
        }
    }

    /// Number of commits verified so far.
    pub fn verified(&self) -> u64 {
        self.verified
    }

    /// Checks one committed record against the oracle. Returns the
    /// *expected* record on mismatch.
    pub fn check(&mut self, actual: &CommitRecord) -> Result<(), CommitRecord> {
        let expected = self.oracle.next_commit();
        if expected == *actual {
            self.verified += 1;
            Ok(())
        } else {
            Err(expected)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_oracle::InOrderModel;
    use ss_workloads::kernels;

    #[test]
    fn identical_streams_verify() {
        let spec = kernels::mix_int(9);
        let mut reference = InOrderModel::from_spec(spec.clone());
        let mut checker = DiffChecker::new(Box::new(InOrderModel::from_spec(spec)));
        for _ in 0..5_000 {
            let rec = reference.next_commit();
            assert!(checker.check(&rec).is_ok());
        }
        assert_eq!(checker.verified(), 5_000);
    }

    #[test]
    fn content_mismatch_is_reported_with_expected_record() {
        let spec = kernels::mix_int(9);
        let mut reference = InOrderModel::from_spec(spec.clone());
        let mut checker = DiffChecker::new(Box::new(InOrderModel::from_spec(spec)));
        let mut rec = reference.next_commit();
        let expected = rec;
        rec.pc = ss_types::Pc::new(rec.pc.get() ^ 0x40); // corrupt the stream
        let got = checker.check(&rec).unwrap_err();
        assert_eq!(got, expected);
        assert_eq!(checker.verified(), 0, "mismatch must not count as verified");
    }

    #[test]
    fn skipped_uop_diverges_on_the_next_commit() {
        let spec = kernels::stream_hi_ilp(4);
        let mut reference = InOrderModel::from_spec(spec.clone());
        let mut checker = DiffChecker::new(Box::new(InOrderModel::from_spec(spec)));
        let _dropped = reference.next_commit();
        let mut next = reference.next_commit();
        next.seq = 0; // the pipeline's commit index would still be 0
        assert!(checker.check(&next).is_err());
    }
}

//! Differences between two placement assignments.
//!
//! The stateful placement pipeline threads the committed assignment from one
//! epoch into the next, so "what changed" becomes a first-class quantity:
//! the simulator charges migration carbon per moved application, and the
//! sweep report's churn column counts moves per run.  Both go through this
//! one helper so they can never disagree on what a "move" is.

use serde::{Deserialize, Serialize};

/// The per-application difference between a previous assignment and a new
/// one.  Applications are compared position-wise; an index past the end of
/// the shorter vector is treated as unplaced (`None`) on that side, so
/// assignments of different lengths diff without panicking.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AssignmentDiff {
    /// Applications placed in both assignments whose server changed.
    pub moved: Vec<usize>,
    /// Applications placed in both assignments on the same server.
    pub stayed: Vec<usize>,
    /// Applications placed before but unplaced now.
    pub evicted: Vec<usize>,
    /// Applications unplaced (or absent) before but placed now.
    pub arrived: Vec<usize>,
}

impl AssignmentDiff {
    /// Computes the diff from `previous` to `next`.  Applications unplaced
    /// on both sides appear in no bucket.
    pub fn between(previous: &[Option<usize>], next: &[Option<usize>]) -> Self {
        let mut diff = AssignmentDiff::default();
        let len = previous.len().max(next.len());
        for i in 0..len {
            let before = previous.get(i).copied().flatten();
            let after = next.get(i).copied().flatten();
            match (before, after) {
                (Some(a), Some(b)) if a == b => diff.stayed.push(i),
                (Some(_), Some(_)) => diff.moved.push(i),
                (Some(_), None) => diff.evicted.push(i),
                (None, Some(_)) => diff.arrived.push(i),
                (None, None) => {}
            }
        }
        diff
    }

    /// Number of applications that changed server.
    pub fn moves(&self) -> usize {
        self.moved.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn between_classifies_every_transition() {
        let previous = vec![Some(0), Some(1), Some(2), None, None];
        let next = vec![Some(0), Some(3), None, Some(4), None];
        let diff = AssignmentDiff::between(&previous, &next);
        assert_eq!(diff.stayed, vec![0]);
        assert_eq!(diff.moved, vec![1]);
        assert_eq!(diff.evicted, vec![2]);
        assert_eq!(diff.arrived, vec![3]);
        assert_eq!(diff.moves(), 1);
    }

    #[test]
    fn identical_assignments_are_stable() {
        let a = vec![Some(2), None, Some(5)];
        let diff = AssignmentDiff::between(&a, &a);
        assert_eq!(
            diff,
            AssignmentDiff {
                stayed: vec![0, 2],
                ..AssignmentDiff::default()
            }
        );
        assert_eq!(diff.moves(), 0);
    }

    #[test]
    fn length_mismatch_treats_missing_entries_as_unplaced() {
        // New arrivals extend the batch: extra entries diff as arrivals.
        let diff = AssignmentDiff::between(&[Some(1)], &[Some(1), Some(2)]);
        assert_eq!(diff.stayed, vec![0]);
        assert_eq!(diff.arrived, vec![1]);
        // A shrunk batch diffs the tail as evictions.
        let diff = AssignmentDiff::between(&[Some(1), Some(2)], &[Some(1)]);
        assert_eq!(diff.evicted, vec![1]);
    }

    #[test]
    fn empty_assignments_diff_to_empty() {
        assert_eq!(AssignmentDiff::between(&[], &[]), AssignmentDiff::default());
    }
}

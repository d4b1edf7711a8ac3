//! A [`Tally`]: what recording an execution reads of its counters, found by
//! one walk of the plan's shape beside them — the rows read from storage
//! and fed through applies, the sorts, and whether an estimate was flagged
//! and feedback has a filter to learn from. No profile node is walked for
//! it; only a statement with a flagged estimate walks its profile again, to
//! file each one.

use crate::exec::profile::misestimate;
use crate::exec::{OpKind, OpMetrics, OpShape};

/// What one pass over a run's counters found.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    /// Rows read from storage, by scans, index scans and index probes.
    pub rows_scanned: u64,
    /// Rows fed through applies.
    pub apply_rows: u64,
    /// Sort operators in the plan.
    pub sorts: u64,
    /// The factor an estimate is flagged at.
    pub flag_factor: f64,
    /// Whether an estimate is off by at least `flag_factor`.
    pub flagged: bool,
    /// Whether a flagged node is a filter the planner named, one that
    /// cardinality feedback learns from.
    pub learns: bool,
}

/// Where [`Tally::visit`] is: a position, the apply scaling its estimates,
/// and whether it is outside every accumulated subplan.
type Walk = (usize, Option<usize>, bool);

impl Tally {
    /// One pass over `counters` (one per node of `shape`, in pre-order),
    /// every estimate off by at least `flag_factor` flagged.
    pub fn new(shape: &OpShape, counters: &[OpMetrics], flag_factor: f64) -> Tally {
        let mut tally = Tally {
            flag_factor,
            ..Tally::default()
        };
        tally.visit(shape, counters, (0, None, true));
        tally
    }

    /// Add `shape`, at `at`, and its subtree. Like a profile node's, an
    /// estimate is scaled only by an apply outside every accumulated subplan.
    fn visit(&mut self, shape: &OpShape, counters: &[OpMetrics], (at, scaled_by, live): Walk) {
        let m = &counters[at];
        match shape.kind {
            OpKind::Scan | OpKind::IndexScan | OpKind::IndexProbe => {
                self.rows_scanned += m.rows_out
            }
            OpKind::Apply => self.apply_rows += m.rows_in,
            OpKind::Sort => self.sorts += 1,
            _ => {}
        }
        let scale = match scaled_by.map(|apply| counters[apply].evaluations) {
            Some(evaluations) if evaluations > 1 => evaluations as f64,
            _ => 1.0,
        };
        let est = shape.estimated_rows.map(|est| est * scale);
        if est.is_some_and(|est| misestimate(est, m.rows_out, self.flag_factor).is_some()) {
            self.flagged = true;
            self.learns |= shape.shape_key.is_some() && !shape.children.is_empty();
        }
        let mut child_at = at + 1;
        for (i, child) in shape.children.iter().enumerate() {
            let accumulated = shape.accumulates && i + 1 == shape.children.len();
            let scales = shape.kind == OpKind::Apply && accumulated && live;
            let scaled_by = if scales { Some(at) } else { scaled_by };
            self.visit(child, counters, (child_at, scaled_by, live && !accumulated));
            child_at += child.size;
        }
    }
}

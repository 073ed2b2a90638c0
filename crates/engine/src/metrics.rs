//! Typed metrics snapshot for the engine.
//!
//! [`Database::metrics`] combines a point-in-time [`relvu_obs::Snapshot`]
//! of the process-wide registry (closure-cache hit rates, check latency
//! histograms, batch stage timings, lock hold times, commit-history
//! evictions) with the engine's own per-view accept/reject counters and
//! its commit history's floor and length, and renders the whole thing in
//! Prometheus text exposition format for scraping or the REPL's
//! `\metrics` command.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::db::{Database, ViewStats};

/// A point-in-time view of everything the engine measures.
///
/// Registry-backed metrics (`obs`) are process-wide and cumulative since
/// start (all zeros when the `obs` feature is disabled); the per-view
/// counters (`views`) belong to this [`Database`] alone and survive
/// registry resets.
#[derive(Debug, Clone)]
pub struct EngineMetrics {
    /// Counters and histograms from the [`relvu_obs`] registry.
    pub obs: relvu_obs::Snapshot,
    /// Per-view accepted/rejected counts, keyed by view name, with
    /// rejections broken down by [`relvu_core::RejectReason::code`].
    pub views: BTreeMap<String, ViewStats>,
    /// The commit history's floor: commits at or below it are no longer
    /// held, so the audit log, incremental checkpoints and subscription
    /// catch-up can start no earlier. It rises at each checkpoint and,
    /// once the history holds 65,536 commits, at each eviction (counted
    /// by `engine.ring.evicted`).
    pub ring_floor: u64,
    /// The number of commits the history holds, `seq - ring_floor`.
    pub history_len: u64,
}

impl EngineMetrics {
    /// Render in Prometheus text exposition format: the registry metrics
    /// first (via [`relvu_obs::Snapshot::render_prometheus`]), then the
    /// `relvu_ring_floor` and `relvu_history_commits` gauges, one
    /// `relvu_view_accepted_total{view="..."}` line per view and one
    /// `relvu_view_rejected_total{view="...",reason="..."}` line per
    /// (view, reason code) pair.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut out = self.obs.render_prometheus();
        out.push_str("# TYPE relvu_ring_floor gauge\n");
        let _ = writeln!(out, "relvu_ring_floor {}", self.ring_floor);
        out.push_str("# TYPE relvu_history_commits gauge\n");
        let _ = writeln!(out, "relvu_history_commits {}", self.history_len);
        if !self.views.is_empty() {
            out.push_str("# TYPE relvu_view_accepted_total counter\n");
            for (name, stats) in &self.views {
                let _ = writeln!(
                    out,
                    "relvu_view_accepted_total{{view=\"{}\"}} {}",
                    escape_label(name),
                    stats.accepted
                );
            }
            out.push_str("# TYPE relvu_view_rejected_total counter\n");
            for (name, stats) in &self.views {
                for (reason, n) in &stats.rejected_by_reason {
                    let _ = writeln!(
                        out,
                        "relvu_view_rejected_total{{view=\"{}\",reason=\"{}\"}} {}",
                        escape_label(name),
                        escape_label(reason),
                        n
                    );
                }
            }
        }
        out
    }
}

/// Escape a Prometheus label value (backslash, quote, newline).
fn escape_label(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '\\' => vec!['\\', '\\'],
            '"' => vec!['\\', '"'],
            '\n' => vec!['\\', 'n'],
            c => vec![c],
        })
        .collect()
}

impl Database {
    /// Snapshot every metric the engine keeps: the process-wide
    /// [`relvu_obs`] registry plus this database's per-view stats and
    /// commit history's floor and length.
    ///
    /// Cheap enough to call between updates: everything but the registry
    /// is read from one pinned snapshot, without the engine lock.
    #[must_use]
    pub fn metrics(&self) -> EngineMetrics {
        let snap = self.snapshot();
        let views = snap
            .all_stats()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let history = &snap.state.history;
        EngineMetrics {
            obs: relvu_obs::snapshot(),
            views,
            ring_floor: history.floor(),
            history_len: history.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_escaping() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn ring_floor_follows_checkpoint_prunes() {
        let f = relvu_workload::fixtures::edm();
        let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).unwrap();
        db.create_view("staff", f.x, Some(f.y), crate::Policy::Exact)
            .unwrap();
        for e in ["dan", "eve"] {
            let t = relvu_relation::Tuple::new([f.dict.sym(e), f.dict.sym("toys")]);
            db.insert_via("staff", t).unwrap();
        }
        let m = db.metrics();
        assert_eq!((m.ring_floor, m.history_len), (0, 2));
        db.prune_history_below(2);
        let m = db.metrics();
        assert_eq!((m.ring_floor, m.history_len), (2, 0));
        let text = m.render_prometheus();
        assert!(text.contains("relvu_ring_floor 2\n"));
        assert!(text.contains("relvu_history_commits 0\n"));
        // A commit after the prune is held again.
        let t = relvu_relation::Tuple::new([f.dict.sym("fay"), f.dict.sym("toys")]);
        db.insert_via("staff", t).unwrap();
        let m = db.metrics();
        assert_eq!((m.ring_floor, m.history_len), (2, 1));
        assert!(m.render_prometheus().contains("relvu_history_commits 1\n"));
    }

    #[test]
    fn render_includes_per_view_lines() {
        let mut views = BTreeMap::new();
        let mut stats = ViewStats {
            accepted: 3,
            rejected: 2,
            rejected_by_reason: BTreeMap::new(),
        };
        stats
            .rejected_by_reason
            .insert("intersection_not_in_view".into(), 2);
        views.insert("staff".into(), stats);
        let m = EngineMetrics {
            obs: relvu_obs::snapshot(),
            views,
            ring_floor: 7,
            history_len: 3,
        };
        let text = m.render_prometheus();
        assert!(text.contains("relvu_ring_floor 7\n"));
        assert!(text.contains("relvu_history_commits 3\n"));
        assert!(text.contains("relvu_view_accepted_total{view=\"staff\"} 3"));
        assert!(text.contains(
            "relvu_view_rejected_total{view=\"staff\",reason=\"intersection_not_in_view\"} 2"
        ));
    }
}

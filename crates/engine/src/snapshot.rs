//! Plain-text persistence for [`crate::Database`].
//!
//! A small line-oriented format (no external dependencies):
//!
//! ```text
//! relvu-dump v1
//! schema Emp Dept Mgr
//! fd Emp -> Dept
//! fd Dept -> Mgr
//! row 5 17 90
//! view staff exact x Emp Dept y Dept Mgr
//! view payroll exact auto x Emp Dept y Dept Mgr
//! sview cheap exact x S P Qty y S City pred Qty <= 5
//! end
//! ```
//!
//! The `auto` marker (directly after the policy) records that the view's
//! complement was *derived* (Corollary 2) rather than declared: on load
//! the complement is recomputed from the loaded Σ instead of being pinned
//! to the dumped attribute set, exactly as the original
//! [`Database::create_view`] call behaved. The dumped `y` section is kept
//! for human readers and for old parsers. Dumps without the marker (from
//! older versions) still load, pinning whatever `y` they carry.
//!
//! **Views over views** (PR 6) add a `from <parent>` section and bump the
//! header to `v2` — but only when a parented view actually exists, so
//! flat databases keep dumping byte-identical `v1` text:
//!
//! ```text
//! relvu-dump v2
//! schema Emp Dept Mgr
//! view staff exact x Emp Dept y Dept Mgr
//! view managers exact auto from staff x Dept y Dept Mgr
//! end
//! ```
//!
//! A parented line serializes the view's *own* registration arguments —
//! the `x` it asked for is already collapsed to `x ∩ x_parent`, and a
//! `sview`'s `pred` section is its own predicate, not the inherited
//! conjunction — so loading replays the original `create_*_over` calls
//! and re-derives the composition. View lines are written in
//! registration (topological) order, so every `from` target precedes its
//! children; the loader accepts both headers.
//!
//! Values are raw `u64` constant ids (the engine is value-agnostic;
//! symbol dictionaries live with the caller). Labeled nulls never appear
//! in a legal base instance, so the format has no representation for
//! them.

use std::fmt::Write as _;

use relvu_relation::{CmpOp, Pred, Relation, Tuple, Value};

use crate::{Database, EngineError, EngineSnapshot, Policy, Result};

fn cmp_token(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "=",
        CmpOp::Ne => "!=",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    }
}

fn parse_cmp(tok: &str) -> Option<CmpOp> {
    Some(match tok {
        "=" => CmpOp::Eq,
        "!=" => CmpOp::Ne,
        "<" => CmpOp::Lt,
        "<=" => CmpOp::Le,
        ">" => CmpOp::Gt,
        ">=" => CmpOp::Ge,
        _ => return None,
    })
}

fn load_err(reason: impl Into<String>) -> EngineError {
    EngineError::Load {
        reason: reason.into(),
    }
}

/// A parse error pinned to a 1-based input line — `line N: reason`.
/// Torn-WAL and checkpoint diagnostics in `relvu-durability` lean on
/// this prefix to point at the offending line of an embedded dump.
fn load_err_at(line: usize, reason: impl Into<String>) -> EngineError {
    EngineError::Load {
        reason: format!("line {line}: {}", reason.into()),
    }
}

impl EngineSnapshot {
    /// Serialize this pinned epoch's schema, Σ, base instance and view
    /// definitions. The audit log and statistics are *not* persisted
    /// (they are session-scoped). Serialization reads no engine lock, so
    /// a checkpoint never stalls writers, and the caller can read the
    /// matching [`EngineSnapshot::seq`] off the same pin without a
    /// window for a commit in between.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.dump_into(&mut out);
        out
    }

    /// [`EngineSnapshot::dump`], appended to `out` — a checkpoint writer
    /// builds its header and this body in one buffer. Writes through
    /// [`std::fmt::Write`], so no value is formatted into a string of
    /// its own.
    pub fn dump_into(&self, out: &mut String) {
        let (schema, fds, base, views) = Database::export_parts(self);
        // Only a parented view needs the v2 `from` section; flat
        // databases keep emitting v1 so their dumps stay byte-stable
        // across versions.
        let version = if views.iter().any(|d| d.parent().is_some()) {
            "relvu-dump v2\n"
        } else {
            "relvu-dump v1\n"
        };
        // Rows dominate the text; a hint sized for ids of up to seven
        // digits saves most of the regrowth copies.
        out.reserve(base.len() * (4 + 8 * schema.arity()));
        out.push_str(version);
        out.push_str("schema");
        for a in schema.attrs() {
            out.push(' ');
            out.push_str(schema.name(a));
        }
        out.push('\n');
        for fd in &fds {
            let _ = writeln!(out, "fd {}", fd.show(&schema));
        }
        for row in base.iter() {
            out.push_str("row");
            for v in row.values() {
                match v {
                    Value::Const(c) => {
                        let _ = write!(out, " {c}");
                    }
                    Value::Null(_) => unreachable!("legal bases are concrete"),
                }
            }
            out.push('\n');
        }
        for def in views {
            // Kind follows the view's *own* predicate: a plain projection
            // over a selection parent inherits σ_P but replays as `view`.
            let kind = if def.own_pred().is_some() {
                "sview"
            } else {
                "view"
            };
            let auto = if def.auto_complement() { " auto" } else { "" };
            let _ = write!(out, "{kind} {} {}{auto}", def.name(), def.policy());
            if let Some(parent) = def.parent() {
                let _ = write!(out, " from {parent}");
            }
            out.push_str(" x");
            for a in def.x().iter() {
                out.push(' ');
                out.push_str(schema.name(a));
            }
            out.push_str(" y");
            for a in def.y().iter() {
                out.push(' ');
                out.push_str(schema.name(a));
            }
            if let Some(pred) = def.own_pred() {
                out.push_str(" pred");
                for atom in pred.atoms() {
                    let _ = write!(
                        out,
                        " {} {} {}",
                        schema.name(atom.attr),
                        cmp_token(atom.op),
                        atom.value
                    );
                }
            }
            out.push('\n');
        }
        out.push_str("end\n");
    }
}

/// A dumped view's registration call, parsed and not yet made.
struct ViewLine {
    name: String,
    parent: Option<String>,
    x: relvu_relation::AttrSet,
    /// `None` for an `auto` view, whose complement is derived again.
    y: Option<relvu_relation::AttrSet>,
    policy: Policy,
    /// The predicate of an `sview` line.
    pred: Option<Pred>,
}

/// A database loaded from a dump whose views are not yet registered, so
/// its base can still change wholesale — by checkpoint-delta replay —
/// before any view is built over it. [`PendingLoad::finish`] then
/// registers the dump's views, building each view once.
pub struct PendingLoad {
    db: Database,
    views: Vec<ViewLine>,
}

impl PendingLoad {
    /// The loaded schema, Σ and base, with no view registered yet: a
    /// [`Database::resume_at`] or [`Database::apply_checkpoint_deltas`]
    /// on it edits and checks the base alone and rebuilds no view.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Register the dump's views in dump order (parents before their
    /// children), each materialized once over the base as it now stands.
    ///
    /// # Errors
    /// The usual creation errors if the dumped state is inconsistent.
    pub fn finish(self) -> Result<Database> {
        let db = self.db;
        for v in self.views {
            let (name, parent) = (v.name.as_str(), v.parent.as_deref());
            // Replaying the original registration call re-derives the
            // composition; view lines come out of `dump` in registration
            // order, so a `from` target always exists by the time its
            // children load.
            match (v.pred, parent) {
                (Some(pred), Some(p)) => db.create_selection_view_over(name, p, v.x, v.y, pred)?,
                (Some(pred), None) => db.create_selection_view(name, v.x, v.y, pred)?,
                (None, Some(p)) => db.create_view_over(name, p, v.x, v.y, v.policy)?,
                (None, None) => db.create_view(name, v.x, v.y, v.policy)?,
            }
        }
        Ok(db)
    }
}

impl Database {
    /// Reconstruct a database from [`EngineSnapshot::dump`] output.
    ///
    /// # Errors
    /// [`EngineError::Load`] on malformed input; the usual creation errors
    /// if the dumped state is inconsistent.
    pub fn load(text: &str) -> Result<Database> {
        Database::load_deferred(text)?.finish()
    }

    /// Parse a dump and load its schema, Σ and base, deferring the
    /// registration of its views to [`PendingLoad::finish`]. A caller
    /// that replays checkpoint deltas onto the loaded base in between
    /// builds each view once instead of once per delta.
    ///
    /// # Errors
    /// [`EngineError::Load`] on malformed input, including a malformed
    /// view line; the usual creation errors if the base violates Σ.
    pub fn load_deferred(text: &str) -> Result<PendingLoad> {
        let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l));
        match lines.next().map(|(_, l)| l.trim()) {
            Some("relvu-dump v1") | Some("relvu-dump v2") => {}
            _ => return Err(load_err_at(1, "missing `relvu-dump v1`/`v2` header")),
        }
        let mut schema: Option<relvu_relation::Schema> = None;
        let mut fd_lines: Vec<(usize, String)> = Vec::new();
        let mut rows: Vec<Tuple> = Vec::new();
        let mut view_lines: Vec<(usize, bool, String)> = Vec::new();
        let mut ended = false;
        for (ln, line) in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (head, rest) = line.split_once(' ').unwrap_or((line, ""));
            match head {
                "schema" => {
                    if schema.is_some() {
                        return Err(load_err_at(ln, "duplicate `schema` directive"));
                    }
                    let names: Vec<&str> = rest.split_whitespace().collect();
                    schema = Some(
                        relvu_relation::Schema::new(names)
                            .map_err(|e| load_err_at(ln, e.to_string()))?,
                    );
                }
                "fd" => fd_lines.push((ln, rest.to_string())),
                "row" => {
                    let vals: std::result::Result<Vec<Value>, _> = rest
                        .split_whitespace()
                        .map(|w| w.parse::<u64>().map(Value::Const))
                        .collect();
                    let vals = vals.map_err(|_| load_err_at(ln, format!("bad row `{line}`")))?;
                    if let Some(s) = &schema {
                        if vals.len() != s.arity() {
                            return Err(load_err_at(
                                ln,
                                format!(
                                    "row has {} values but the schema has {} attributes",
                                    vals.len(),
                                    s.arity()
                                ),
                            ));
                        }
                    }
                    rows.push(Tuple::new(vals));
                }
                "view" => view_lines.push((ln, false, rest.to_string())),
                "sview" => view_lines.push((ln, true, rest.to_string())),
                "end" => {
                    ended = true;
                    break;
                }
                other => return Err(load_err_at(ln, format!("unknown directive `{other}`"))),
            }
        }
        if !ended {
            return Err(load_err("missing `end`"));
        }
        let schema = schema.ok_or_else(|| load_err("missing `schema` line"))?;
        let mut fds = relvu_deps::FdSet::default();
        for (ln, l) in &fd_lines {
            fds.push(
                relvu_deps::Fd::parse(&schema, l).map_err(|e| load_err_at(*ln, e.to_string()))?,
            );
        }
        let base =
            Relation::from_rows(schema.universe(), rows).map_err(|e| load_err(e.to_string()))?;
        let db = Database::new(schema.clone(), fds, base)?;
        let mut views = Vec::with_capacity(view_lines.len());
        for (ln, is_selection, l) in view_lines {
            let words: Vec<&str> = l.split_whitespace().collect();
            if words.len() < 3 {
                return Err(load_err_at(ln, format!("bad view line `{l}`")));
            }
            let name = words[0];
            let policy = match words[1] {
                "exact" => Policy::Exact,
                "test1" => Policy::Test1,
                "test2" => Policy::Test2,
                p => return Err(load_err_at(ln, format!("unknown policy `{p}`"))),
            };
            // Sections: [auto] [from <parent>] x <names…> y <names…>
            // [pred <a op v>…]. `auto` only counts as the marker *before*
            // the first section keyword, so a schema with an attribute
            // literally named "auto" still parses; likewise `from` only
            // opens a section before `x`, keeping an attribute named
            // "from" unambiguous inside the x/y lists.
            let mut x = relvu_relation::AttrSet::new();
            let mut y = relvu_relation::AttrSet::new();
            let mut pred_toks: Vec<&str> = Vec::new();
            let mut parent: Option<&str> = None;
            let mut saw_from = false;
            let mut auto = false;
            let mut section = "";
            for &w in &words[2..] {
                match w {
                    "auto" if section.is_empty() => auto = true,
                    "from" if section.is_empty() => {
                        saw_from = true;
                        section = "from";
                    }
                    "x" | "y" | "pred" => section = w,
                    _ => match section {
                        "from" => {
                            if parent.replace(w).is_some() {
                                return Err(load_err_at(
                                    ln,
                                    format!("more than one parent in `{l}`"),
                                ));
                            }
                            section = "";
                        }
                        "x" => {
                            x.insert(
                                schema
                                    .attr_checked(w)
                                    .map_err(|e| load_err_at(ln, e.to_string()))?,
                            );
                        }
                        "y" => {
                            y.insert(
                                schema
                                    .attr_checked(w)
                                    .map_err(|e| load_err_at(ln, e.to_string()))?,
                            );
                        }
                        "pred" => pred_toks.push(w),
                        _ => return Err(load_err_at(ln, format!("stray token `{w}` in `{l}`"))),
                    },
                }
            }
            if saw_from && parent.is_none() {
                return Err(load_err_at(ln, format!("`from` without a parent in `{l}`")));
            }
            // An `auto` view re-derives its complement from the loaded Σ,
            // matching the original creation call; a declared view pins
            // the dumped attribute set.
            let y = if auto { None } else { Some(y) };
            let mut pred = None;
            if is_selection {
                if pred_toks.len() % 3 != 0 || pred_toks.is_empty() {
                    return Err(load_err_at(ln, format!("bad predicate in `{l}`")));
                }
                let mut all = Pred::all();
                for chunk in pred_toks.chunks(3) {
                    let attr = schema
                        .attr_checked(chunk[0])
                        .map_err(|e| load_err_at(ln, e.to_string()))?;
                    let op = parse_cmp(chunk[1])
                        .ok_or_else(|| load_err_at(ln, format!("bad operator `{}`", chunk[1])))?;
                    let value: u64 = chunk[2]
                        .parse()
                        .map_err(|_| load_err_at(ln, format!("bad constant `{}`", chunk[2])))?;
                    all = all.and(attr, op, value);
                }
                pred = Some(all);
            }
            views.push(ViewLine {
                name: name.to_string(),
                parent: parent.map(str::to_string),
                x,
                y,
                policy,
                pred,
            });
        }
        Ok(PendingLoad { db, views })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relvu_relation::tup;
    use relvu_workload::fixtures;

    #[test]
    fn roundtrip_projection_views() {
        let f = fixtures::supplier_part();
        let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).unwrap();
        db.create_view("orders", f.x, Some(f.y), Policy::Test1)
            .unwrap();
        let snap = db.snapshot();
        let text = snap.dump();
        let db2 = Database::load(&text).unwrap();
        let snap2 = db2.snapshot();
        assert_eq!(snap2.base(), snap.base());
        let def = snap2.view_def("orders").unwrap();
        assert_eq!(def.x(), f.x);
        assert_eq!(def.y(), f.y);
        assert_eq!(def.policy(), Policy::Test1);
        // Second roundtrip is identical text.
        assert_eq!(snap2.dump(), text);
        // And the reloaded engine still translates updates.
        db2.insert_via("orders", tup![1, 102, 7]).unwrap();
    }

    #[test]
    fn roundtrip_selection_views() {
        let f = fixtures::supplier_part();
        let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).unwrap();
        let s = f.schema.attr("S").unwrap();
        let qty = f.schema.attr("Qty").unwrap();
        let pred = Pred::cmp(s, CmpOp::Eq, 1).and(qty, CmpOp::Le, 5);
        db.create_selection_view("cheap_s1", f.x, Some(f.y), pred.clone())
            .unwrap();
        let snap = db.snapshot();
        let snap2 = Database::load(&snap.dump()).unwrap().snapshot();
        let def = snap2.view_def("cheap_s1").unwrap();
        assert_eq!(def.pred(), Some(&pred));
        assert_eq!(
            snap2.view_instance("cheap_s1").unwrap(),
            snap.view_instance("cheap_s1").unwrap()
        );
    }

    #[test]
    fn roundtrip_dag_views() {
        let f = fixtures::supplier_part();
        let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).unwrap();
        let qty = f.schema.attr("Qty").unwrap();
        db.create_view("orders", f.x, Some(f.y), Policy::Exact)
            .unwrap();
        db.create_view_over("order_keys", "orders", f.x, None, Policy::Exact)
            .unwrap();
        db.create_selection_view_over(
            "bulk_orders",
            "order_keys",
            f.x,
            None,
            Pred::cmp(qty, CmpOp::Ge, 5),
        )
        .unwrap();
        let snap = db.snapshot();
        let text = snap.dump();
        assert!(text.starts_with("relvu-dump v2\n"), "{text}");
        assert!(text.contains("from orders"), "{text}");
        let snap2 = Database::load(&text).unwrap().snapshot();
        // Parent edges, predicates and instances survive the roundtrip…
        assert_eq!(
            snap2.view_parent("bulk_orders").unwrap().as_deref(),
            Some("order_keys")
        );
        assert_eq!(snap2.view_children("orders").unwrap(), ["order_keys"]);
        for v in ["orders", "order_keys", "bulk_orders"] {
            assert_eq!(
                snap2.view_instance(v).unwrap(),
                snap.view_instance(v).unwrap()
            );
            assert_eq!(
                snap2.view_def(v).unwrap().pred(),
                snap.view_def(v).unwrap().pred()
            );
        }
        // …and a second roundtrip is byte-identical.
        assert_eq!(snap2.dump(), text);
    }

    #[test]
    fn flat_databases_keep_dumping_v1() {
        let f = fixtures::supplier_part();
        let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).unwrap();
        db.create_view("orders", f.x, Some(f.y), Policy::Exact)
            .unwrap();
        assert!(db.snapshot().dump().starts_with("relvu-dump v1\n"));
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(matches!(
            Database::load("nope"),
            Err(EngineError::Load { .. })
        ));
        assert!(matches!(
            Database::load("relvu-dump v1\nschema A B\nrow 1\nend\n"),
            Err(EngineError::Load { .. }) | Err(EngineError::Relation(_))
        ));
        assert!(matches!(
            Database::load("relvu-dump v1\nschema A B\nrow 1 2\n"),
            Err(EngineError::Load { .. })
        ));
        assert!(matches!(
            Database::load("relvu-dump v1\nschema A B\nwat 1\nend\n"),
            Err(EngineError::Load { .. })
        ));
        // `from` with no parent name, and a parent that doesn't exist.
        assert!(matches!(
            Database::load(
                "relvu-dump v2\nschema A B\nfd A -> B\nview v exact from x A y B\nend\n"
            ),
            Err(EngineError::Load { .. })
        ));
        assert!(matches!(
            Database::load(
                "relvu-dump v2\nschema A B\nfd A -> B\nview v exact from ghost x A y B\nend\n"
            ),
            Err(EngineError::UnknownView { .. })
        ));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let reason = |text: &str| match Database::load(text) {
            Err(EngineError::Load { reason }) => reason,
            Err(other) => panic!("expected Load error, got {other:?}"),
            Ok(_) => panic!("expected Load error, got a database"),
        };
        assert!(reason("nope").starts_with("line 1:"));
        assert!(reason("relvu-dump v1\nschema A B\nwat 1\nend\n").starts_with("line 3:"));
        assert!(reason("relvu-dump v1\nschema A B\nrow 1 x\nend\n").starts_with("line 3:"));
        // Row arity mismatches are pinned to the row, not deferred to the
        // final Relation::from_rows.
        let r = reason("relvu-dump v1\nschema A B\nrow 1 2\nrow 3\nend\n");
        assert!(r.starts_with("line 4:"), "{r}");
        let r = reason("relvu-dump v1\nschema A B\nfd A -> C\nend\n");
        assert!(r.starts_with("line 3:"), "{r}");
        let r = reason("relvu-dump v1\nschema A B\nview v exact x A y Q\nend\n");
        assert!(r.starts_with("line 3:"), "{r}");
    }

    #[test]
    fn illegal_dumped_state_still_validated() {
        // A dump whose rows violate the FDs must be rejected by the usual
        // construction checks.
        let text = "relvu-dump v1\nschema A B\nfd A -> B\nrow 1 2\nrow 1 3\nend\n";
        assert!(matches!(
            Database::load(text),
            Err(EngineError::IllegalBase)
        ));
    }
}

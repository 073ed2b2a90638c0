//! The view dependency DAG.
//!
//! Since PR 6 a view's source can be another view's instance, not just
//! the base relation. The engine keeps the parent/child structure here:
//! a forest (each view has at most one parent), stored as the
//! registration order plus a parent→children adjacency map.
//!
//! **Registration order is a valid topological order.** A child can only
//! be registered over an already-existing parent, and
//! [`crate::Database::drop_view`] refuses to remove a view that still
//! has dependents — so the `order` vector is maintained parent-before-
//! child by construction, and every traversal (delta propagation in
//! `commit`, materialization rebuilds, Σ revalidation, dump export)
//! simply walks it front to back.

use std::collections::HashMap;

/// Parent/child structure over the registered views.
#[derive(Debug, Default, Clone)]
pub(crate) struct ViewDag {
    /// Registration order — parents always precede their children.
    order: Vec<String>,
    /// Parent name → direct children, in registration order.
    children: HashMap<String, Vec<String>>,
}

impl ViewDag {
    /// Record a newly registered view. The caller has already verified
    /// that `parent` (when given) is registered, so the topological
    /// invariant of `order` is preserved.
    pub(crate) fn register(&mut self, name: &str, parent: Option<&str>) {
        self.order.push(name.to_string());
        if let Some(p) = parent {
            self.children
                .entry(p.to_string())
                .or_default()
                .push(name.to_string());
        }
    }

    /// Remove a view with no dependents. The caller has already checked
    /// that [`ViewDag::dependents`] is empty; `parent` is the view's own
    /// parent so its child list can be pruned.
    pub(crate) fn remove(&mut self, name: &str, parent: Option<&str>) {
        self.order.retain(|n| n != name);
        self.children.remove(name);
        if let Some(p) = parent {
            if let Some(kids) = self.children.get_mut(p) {
                kids.retain(|n| n != name);
                if kids.is_empty() {
                    self.children.remove(p);
                }
            }
        }
    }

    /// Every registered view in topological (registration) order.
    pub(crate) fn order(&self) -> &[String] {
        &self.order
    }

    /// The direct children of `name`, in registration order.
    pub(crate) fn children(&self, name: &str) -> &[String] {
        self.children.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All transitive dependents of `name`, in topological order —
    /// the blast radius of dropping or invalidating it.
    pub(crate) fn dependents(&self, name: &str) -> Vec<String> {
        let mut reachable: Vec<&str> = vec![name];
        let mut out = Vec::new();
        // `order` is topological, so one forward pass collects every
        // descendant in topological order.
        for n in &self.order {
            if self.parent_of(n).is_some_and(|p| reachable.contains(&p)) {
                reachable.push(n);
                out.push(n.clone());
            }
        }
        out
    }

    /// The parent of `n` according to the adjacency map, if any.
    fn parent_of(&self, n: &str) -> Option<&str> {
        self.children
            .iter()
            .find(|(_, kids)| kids.iter().any(|k| k == n))
            .map(|(p, _)| p.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_order_is_topological() {
        let mut dag = ViewDag::default();
        dag.register("a", None);
        dag.register("b", Some("a"));
        dag.register("c", Some("b"));
        dag.register("d", Some("a"));
        assert_eq!(dag.order(), ["a", "b", "c", "d"]);
        assert_eq!(dag.children("a"), ["b", "d"]);
        assert_eq!(dag.children("b"), ["c"]);
        assert!(dag.children("c").is_empty());
    }

    #[test]
    fn dependents_are_transitive_and_topological() {
        let mut dag = ViewDag::default();
        dag.register("a", None);
        dag.register("b", Some("a"));
        dag.register("e", None);
        dag.register("c", Some("b"));
        dag.register("d", Some("a"));
        assert_eq!(dag.dependents("a"), ["b", "c", "d"]);
        assert_eq!(dag.dependents("b"), ["c"]);
        assert!(dag.dependents("e").is_empty());
    }

    #[test]
    fn remove_prunes_adjacency() {
        let mut dag = ViewDag::default();
        dag.register("a", None);
        dag.register("b", Some("a"));
        dag.remove("b", Some("a"));
        assert_eq!(dag.order(), ["a"]);
        assert!(dag.children("a").is_empty());
        assert!(dag.dependents("a").is_empty());
    }
}

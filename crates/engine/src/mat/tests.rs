//! Unit tests of the netted folds: keys whose support does not cross
//! zero must leave every array untouched.

use super::*;
use crate::Policy;
use relvu_relation::tup;

/// `E → D → M` over `(E, D, M)`: employees 1 and 2 in department 10
/// under manager 100, employee 3 in department 20 under manager 200.
fn base() -> Relation {
    let rows = [tup![1, 10, 100], tup![2, 10, 100], tup![3, 20, 200]];
    Relation::from_rows(attrs(&[0, 1, 2]), rows).unwrap()
}

fn attrs(ids: &[usize]) -> AttrSet {
    ids.iter().map(|&i| Attr::new(i)).collect()
}

fn mat(x: &[usize], y: &[usize]) -> ViewMat {
    let def = ViewDef::new(
        "v".into(),
        attrs(x),
        attrs(y),
        Policy::Exact,
        None,
        false,
        0,
    );
    ViewMat::build(&base(), None, &def, None).unwrap()
}

/// Department 10's manager changes: both of its rows move.
fn manager_change() -> (Vec<Tuple>, Vec<Tuple>) {
    let added = vec![tup![1, 10, 101], tup![2, 10, 101]];
    let removed = vec![tup![1, 10, 100], tup![2, 10, 100]];
    (added, removed)
}

/// The base after [`manager_change`].
fn changed_base() -> Relation {
    let mut b = base();
    let (added, removed) = manager_change();
    for t in &removed {
        b.remove(t);
    }
    for t in added {
        b.insert(t).unwrap();
    }
    b
}

#[test]
fn rows_moving_within_one_key_leave_the_view_side_alone() {
    // `emp = π{E, D}`: every moved row keeps its projection.
    let mut m = mat(&[0, 1], &[1, 2]);
    let (rows, support) = (m.instance.rows().to_vec(), m.support.clone());
    let (added, removed) = manager_change();
    let (out_added, out_removed) = m.fold_instance(&added, &removed);
    assert!(out_added.is_empty() && out_removed.is_empty());
    assert_eq!(m.instance.rows(), &rows[..], "no row moved");
    assert_eq!(m.support, support, "support unchanged");
    // `π{E, D}` is the complement of `mgrs = π{D, M}`: same netting.
    let mut mgrs = mat(&[1, 2], &[0, 1]);
    let entries = mgrs.y_entries.clone();
    mgrs.fold_complement(&attrs(&[0, 1, 2]), &added, &removed);
    assert_eq!(mgrs.y_entries, entries);
}

#[test]
fn one_commit_empties_one_key_and_creates_another() {
    // `mgrs = π{D, M}`: (10, 100) drops from support 2 to 0 and
    // (10, 101) rises from 0 to 2.
    let mut m = mat(&[1, 2], &[0, 1]);
    let (added, removed) = manager_change();
    let (out_added, out_removed) = m.fold_instance(&added, &removed);
    assert_eq!(out_added, vec![tup![10, 101]]);
    assert_eq!(out_removed, vec![tup![10, 100]]);
    let slot = m.instance.slot_of(&tup![10, 101]).unwrap();
    assert_eq!(m.support[slot], 2);
    // The complement side of `emp = π{E, D}` takes the same two edits.
    let mut emp = mat(&[0, 1], &[1, 2]);
    emp.fold_complement(&attrs(&[0, 1, 2]), &added, &removed);
    let counts: Vec<(Tuple, u64)> = vec![(tup![10, 101], 2), (tup![20, 200], 1)];
    assert_eq!(emp.y_entries, counts);
    let after = changed_base();
    m.debug_assert_consistent(&after);
    emp.debug_assert_consistent(&after);
}

//! The three workloads: schema, base instance, views, storage knobs, and
//! the seed-determined operation stream each writer sends.
//!
//! Every stream is generated against a model of the view state, so the
//! verdict the paper's tests must reach is known up front: inserts,
//! deletes and replaces are translatable, and a `Reject` is an insert
//! whose `X∩Y` part is not in the view (Theorem 3, condition (a)). A
//! verdict other than the planned one is a failed operation.

use std::time::Duration;

use relvu::engine::UpdateOp;
use relvu::relation::{Tuple, Value};

/// The kind of a planned operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Insert,
    Delete,
    Replace,
    /// An insert the translatability test must refuse.
    Reject,
}

impl Kind {
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One operation of a stream.
pub struct Planned {
    pub view: &'static str,
    pub op: UpdateOp,
    pub kind: Kind,
}

/// How a view is registered.
pub struct ViewSpec {
    pub name: &'static str,
    /// View attributes `X`.
    pub x: &'static [&'static str],
    /// The complement `Y`; `None` lets the engine choose one.
    pub y: Option<&'static [&'static str]>,
    /// For a selection view `σ_{D<n}(π_X)`: the bound `n`.
    pub d_below: Option<u64>,
}

/// Which stream generator a workload uses.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Ingest,
    Group,
    Hot,
}

/// A workload: everything the driver needs to set up and run it.
pub struct Spec {
    pub name: &'static str,
    pub mix: Mix,
    /// `|Y − X|`: the number of manager columns `M0…`.
    pub width: usize,
    pub rows: u64,
    pub depts: u64,
    pub views: &'static [ViewSpec],
    /// Closed-loop writer threads (1 for an open loop).
    pub writers: usize,
    /// A closed-loop writer's think time after each ack: uniform in
    /// `[0, think)`. Random think times keep concurrent writers from
    /// locking into one phase of the group commit, which would make
    /// runs differ by which phase they locked into.
    pub think: Duration,
    /// Open loop: operations per second on a fixed schedule.
    pub rate: Option<f64>,
    /// Simulated fsync latency of the in-memory store in the measured
    /// interval and the restart image (set-up runs without it). A
    /// workload with one waits on a device, not a CPU, to commit.
    pub sync_delay: Duration,
    /// `checkpoint_incremental` runs each time this many more commits
    /// have been acknowledged.
    pub ckpt_every: u64,
    /// Whether a checkpointer thread of its own runs the checkpoints,
    /// rather than writer 0 between its ops (an open-loop writer cannot
    /// stall its schedule for one).
    pub ckpt_in_background: bool,
    /// Subscriptions the consumer drains, in registration order: a view
    /// name, or `None` for the base relation. The last one must be the
    /// base: it sees every commit, and a commit's fan-out reaches it
    /// last, so the consumer polls it.
    pub subs: &'static [Option<&'static str>],
    /// The view the consumer pins and reads after each change.
    pub read_view: &'static str,
}

const EMP: &[&str] = &["E", "D"];

pub const INGEST_EXACT: Spec = Spec {
    name: "ingest_exact",
    mix: Mix::Ingest,
    width: 4,
    rows: 1024,
    depts: 128,
    views: &[
        ViewSpec {
            name: "emp",
            x: EMP,
            y: Some(&["D", "M0", "M1", "M2", "M3"]),
            d_below: None,
        },
        ViewSpec {
            name: "emp_lo",
            x: EMP,
            y: Some(&["D", "M0", "M1", "M2", "M3"]),
            d_below: Some(LO_DEPTS),
        },
    ],
    writers: 1,
    think: Duration::ZERO,
    rate: None,
    sync_delay: Duration::ZERO,
    ckpt_every: 256,
    ckpt_in_background: false,
    subs: &[Some("emp"), None],
    read_view: "emp",
};

pub const GROUP_COMMIT: Spec = Spec {
    name: "group_commit",
    mix: Mix::Group,
    width: 2,
    rows: 64,
    depts: 32,
    views: &[ViewSpec {
        name: "staff",
        x: EMP,
        y: Some(&["D", "M0", "M1"]),
        d_below: None,
    }],
    writers: 2,
    think: Duration::from_millis(1),
    rate: None,
    sync_delay: Duration::from_millis(1),
    ckpt_every: 1024,
    ckpt_in_background: false,
    subs: &[Some("staff"), None],
    read_view: "staff",
};

pub const HOT_VIEW_CDC: Spec = Spec {
    name: "hot_view_cdc",
    mix: Mix::Hot,
    width: 1,
    rows: 4096,
    depts: 64,
    views: &[
        ViewSpec {
            name: "mgrs",
            x: &["D", "M0"],
            y: None,
            d_below: None,
        },
        ViewSpec {
            name: "emp",
            x: EMP,
            y: Some(&["D", "M0"]),
            d_below: None,
        },
    ],
    writers: 1,
    think: Duration::ZERO,
    rate: Some(100.0),
    sync_delay: Duration::ZERO,
    ckpt_every: 512,
    ckpt_in_background: true,
    subs: &[
        Some("mgrs"),
        Some("mgrs"),
        Some("mgrs"),
        Some("mgrs"),
        None,
        None,
        None,
        None,
    ],
    read_view: "mgrs",
};

pub const ALL: [&Spec; 3] = [&INGEST_EXACT, &GROUP_COMMIT, &HOT_VIEW_CDC];

/// `emp_lo` holds the departments below this bound.
const LO_DEPTS: u64 = 32;
/// Departments at or above this value never exist: inserting into one
/// fails condition (a).
const NO_DEPT: u64 = 1 << 30;
/// The most employees of its own a `Group` writer keeps.
const OWN_MAX: usize = 4;
/// Fresh employee ids start here, per writer, above every base id.
const FRESH_EMP: u64 = 1 << 40;

/// The value of manager column `i` of department `d` in the base.
pub fn manager(d: u64, i: usize) -> u64 {
    d * 1_000_000 + i as u64
}

/// SplitMix64: a small, seedable generator, so inputs depend on the
/// seed alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The base instance's `(employee, department)` pairs: employee `e`
/// works in department `e % depts`, so every department has the same
/// staff and the seed drives only the operation stream.
pub fn base_pairs(spec: &Spec) -> Vec<(u64, u64)> {
    (0..spec.rows).map(|e| (e, e % spec.depts)).collect()
}

fn pair(a: u64, b: u64) -> Tuple {
    Tuple::new([Value::int(a), Value::int(b)])
}

/// One writer's operation stream.
pub struct Gen {
    mix: Mix,
    rng: Rng,
    /// Think times, from a stream of their own so the ops do not
    /// depend on them.
    think_rng: Rng,
    think: Duration,
    next_emp: u64,
    /// Employees per department, as this writer's stream sees them.
    emps: Vec<Vec<u64>>,
    /// Current `M0` per department (`Hot`).
    mgr: Vec<u64>,
    /// Departments present in the base (`Group` inserts only there).
    base_depts: Vec<u64>,
    /// The employees this writer hired and still employs (`Group`).
    own: Vec<(u64, u64)>,
    step: u64,
}

impl Gen {
    pub fn new(spec: &Spec, base: &[(u64, u64)], writer: usize, seed: u64) -> Self {
        let mut emps = vec![Vec::new(); spec.depts as usize];
        for &(e, d) in base {
            emps[d as usize].push(e);
        }
        let base_depts = (0..spec.depts)
            .filter(|&d| !emps[d as usize].is_empty())
            .collect();
        Gen {
            mix: spec.mix,
            rng: Rng::new(seed.wrapping_mul(31).wrapping_add(writer as u64 + 1)),
            think_rng: Rng::new(!seed ^ writer as u64),
            think: spec.think,
            next_emp: FRESH_EMP + ((writer as u64) << 32),
            emps,
            mgr: (0..spec.depts).map(|d| manager(d, 0)).collect(),
            base_depts,
            own: Vec::new(),
            step: 0,
        }
    }

    /// The think time before this writer's next op, if it has one.
    pub fn think(&mut self) -> Option<Duration> {
        let ns = self.think.as_nanos() as u64;
        (ns > 0).then(|| Duration::from_nanos(self.think_rng.below(ns)))
    }

    /// Draw the rest of the stream's choices from `seed`: the restart
    /// image's ops then touch the same departments whatever the run's
    /// seed, so recovery does the same work in every run.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = Rng::new(seed);
    }

    fn fresh_emp(&mut self) -> u64 {
        self.next_emp += 1;
        self.next_emp
    }

    /// A department below `limit` holding at least `min` employees.
    fn dept_with(&mut self, limit: u64, min: usize) -> u64 {
        loop {
            let d = self.rng.below(limit);
            if self.emps[d as usize].len() >= min {
                return d;
            }
        }
    }

    fn insert(&mut self, view: &'static str, limit: u64) -> Planned {
        let d = self.dept_with(limit, 1);
        let e = self.fresh_emp();
        self.emps[d as usize].push(e);
        Planned {
            view,
            op: UpdateOp::Insert { t: pair(e, d) },
            kind: Kind::Insert,
        }
    }

    /// Delete an employee of a department that keeps at least one, so
    /// the complement `π_Y` stays constant.
    fn delete(&mut self, view: &'static str, limit: u64) -> Planned {
        let d = self.dept_with(limit, 2);
        let staff = &mut self.emps[d as usize];
        let i = (self.rng.next_u64() % staff.len() as u64) as usize;
        let e = staff.swap_remove(i);
        Planned {
            view,
            op: UpdateOp::Delete { t: pair(e, d) },
            kind: Kind::Delete,
        }
    }

    /// Replace an employee by a new one in the same department.
    fn replace(&mut self, view: &'static str, limit: u64) -> Planned {
        let d = self.dept_with(limit, 1);
        let e2 = self.fresh_emp();
        let staff = &mut self.emps[d as usize];
        let i = (self.rng.next_u64() % staff.len() as u64) as usize;
        let e1 = std::mem::replace(&mut staff[i], e2);
        Planned {
            view,
            op: UpdateOp::Replace {
                t1: pair(e1, d),
                t2: pair(e2, d),
            },
            kind: Kind::Replace,
        }
    }

    /// Insert into a department that does not exist: condition (a) fails.
    fn reject(&mut self, view: &'static str, tuple_dept_first: bool) -> Planned {
        let d = NO_DEPT + self.rng.below(1 << 20);
        let t = if tuple_dept_first {
            pair(d, manager(d, 0))
        } else {
            pair(self.fresh_emp(), d)
        };
        Planned {
            view,
            op: UpdateOp::Insert { t },
            kind: Kind::Reject,
        }
    }

    /// Hire a new employee of this writer's own into a base department.
    fn hire(&mut self) -> Planned {
        let d = self.base_depts[self.rng.below(self.base_depts.len() as u64) as usize];
        let e = self.fresh_emp();
        self.own.push((e, d));
        Planned {
            view: "staff",
            op: UpdateOp::Insert { t: pair(e, d) },
            kind: Kind::Insert,
        }
    }

    /// Rename (replace) or let go (delete) one of this writer's own.
    fn rename_or_fire(&mut self, kind: Kind) -> Planned {
        let i = self.rng.below(self.own.len() as u64) as usize;
        let (e1, d) = self.own[i];
        let op = if kind == Kind::Delete {
            self.own.swap_remove(i);
            UpdateOp::Delete { t: pair(e1, d) }
        } else {
            let e2 = self.fresh_emp();
            self.own[i] = (e2, d);
            UpdateOp::Replace {
                t1: pair(e1, d),
                t2: pair(e2, d),
            }
        };
        Planned {
            view: "staff",
            op,
            kind,
        }
    }

    pub fn next_op(&mut self) -> Planned {
        let step = self.step;
        self.step += 1;
        match self.mix {
            // A fixed cycle of insert 2 : delete 2 : replace 1 : reject 1,
            // every fourth cycle through the selection view `emp_lo`.
            Mix::Ingest => {
                let (view, limit) = if (step / 6).is_multiple_of(4) {
                    ("emp_lo", LO_DEPTS)
                } else {
                    ("emp", self.emps.len() as u64)
                };
                match step % 6 {
                    0 | 3 => self.insert(view, limit),
                    1 | 4 => self.delete(view, limit),
                    2 => self.replace(view, limit),
                    _ => self.reject(view, false),
                }
            }
            // Each writer hires, renames and lets go up to `OWN_MAX`
            // employees of its own, in random order (a fixed cycle would
            // lock the two writers' group commits into one phase), and
            // one op in seven is a refused hire into a missing department.
            Mix::Group => match self.rng.below(7) {
                0 | 1 if self.own.len() < OWN_MAX => self.hire(),
                _ if self.own.is_empty() => self.hire(),
                0..=3 => self.rename_or_fire(Kind::Delete),
                4 | 5 => self.rename_or_fire(Kind::Replace),
                _ => self.reject("staff", false),
            },
            // A fixed cycle of 80: manager changes on `mgrs` (66), two
            // hires and four departures on `emp`, eight refused new
            // departments on `mgrs`. A hire checks all 4096 rows of `emp`
            // and costs several replaces, so hires stay rare enough to
            // leave the commit tail to the replaces; the cheap ops are
            // more frequent, so their medians rest on more samples. `emp`
            // shrinks by about 1% a minute.
            Mix::Hot => match step % 80 {
                15 | 55 => self.insert("emp", self.emps.len() as u64),
                5 | 25 | 45 | 65 => self.delete("emp", self.emps.len() as u64),
                k if k.is_multiple_of(10) => self.reject("mgrs", true),
                _ => {
                    let d = self.rng.below(self.mgr.len() as u64);
                    let old = self.mgr[d as usize];
                    self.mgr[d as usize] = old + 1;
                    Planned {
                        view: "mgrs",
                        op: UpdateOp::Replace {
                            t1: pair(d, old),
                            t2: pair(d, old + 1),
                        },
                        kind: Kind::Replace,
                    }
                }
            },
        }
    }
}

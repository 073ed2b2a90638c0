//! Determinism regression: the same batch, generated from the same RNG
//! seed, must commit the same audit log — byte for byte, sequence
//! numbers included — across repeated runs and across thread counts.
//! The batch pipeline serializes commits in submission order, so thread
//! count may only change wall-clock time, never results.

use rand::prelude::*;
use relvu::prelude::*;
use relvu_engine::{BatchOptions, BatchRequest, Database, LogEntry, Policy, UpdateOp};
use relvu_workload::update_gen::{self, BatchMix, ViewUpdate};
use relvu_workload::{instance_gen, schema_gen};

const SEED: u64 = 0xDE7E_2026;
const RUNS: usize = 8;

struct Fixture {
    schema: Schema,
    fds: FdSet,
    x: AttrSet,
    y: AttrSet,
    base: Relation,
    requests: Vec<BatchRequest>,
}

fn fixture() -> Fixture {
    let mut rng = StdRng::seed_from_u64(SEED);
    let b = schema_gen::edm_family(3);
    let base = instance_gen::edm_instance(&mut rng, &b.schema, 48, 8);
    let v = instance_gen::view_of(&base, b.x);
    let requests = update_gen::update_batch(
        &mut rng,
        b.x,
        b.x & b.y,
        &v,
        32,
        BatchMix::default(),
        1 << 40,
    )
    .into_iter()
    .map(|u| {
        BatchRequest::new(
            "staff",
            match u {
                ViewUpdate::Insert(t) => UpdateOp::Insert { t },
                ViewUpdate::Delete(t) => UpdateOp::Delete { t },
                ViewUpdate::Replace(t1, t2) => UpdateOp::Replace { t1, t2 },
            },
        )
    })
    .collect();
    Fixture {
        schema: b.schema,
        fds: b.fds,
        x: b.x,
        y: b.y,
        base,
        requests,
    }
}

fn run_once(f: &Fixture, threads: usize) -> (Vec<LogEntry>, Relation, Vec<bool>) {
    let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).expect("legal base");
    db.create_view("staff", f.x, Some(f.y), Policy::Exact)
        .expect("complementary");
    let report = db.apply_batch_parallel(
        f.requests.clone(),
        &BatchOptions {
            threads: Some(threads),
        },
    );
    let accept_pattern = report.outcomes.iter().map(Result::is_ok).collect();
    let snap = db.snapshot();
    (snap.log(), (*snap.base()).clone(), accept_pattern)
}

#[test]
fn same_seed_same_log_across_runs_and_thread_counts() {
    let f = fixture();
    let num_cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    let reference = run_once(&f, 1);
    assert!(
        !reference.0.is_empty(),
        "fixture must commit something for the regression to bite"
    );
    assert!(
        reference.2.iter().any(|ok| !ok),
        "fixture should also exercise rejections"
    );

    for threads in [1, 2, num_cpus] {
        for run in 0..RUNS {
            let got = run_once(&f, threads);
            assert_eq!(
                got.0, reference.0,
                "audit log diverged (threads={threads}, run={run})"
            );
            assert_eq!(
                got.1, reference.1,
                "base diverged (threads={threads}, run={run})"
            );
            assert_eq!(
                got.2, reference.2,
                "outcome pattern diverged (threads={threads}, run={run})"
            );
        }
    }
}

#[test]
fn regenerated_requests_are_identical() {
    // The generator itself must be a pure function of the seed — the
    // other half of end-to-end determinism.
    let a = fixture();
    let b = fixture();
    assert_eq!(a.requests, b.requests);
    assert_eq!(a.base, b.base);
}

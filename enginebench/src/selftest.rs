//! Each oracle must reject a corrupted answer: the engine's answer with one
//! part dropped, and with one point added.  Run with
//! `cargo test --release --manifest-path enginebench/Cargo.toml`.

use super::*;
use frdb_core::relation::GenTuple;

fn loaded(workload: &str) -> (Box<dyn Workload>, Database<DenseOrder>) {
    let wl = workload::build(workload, 3).expect("known workload");
    let db = Database::new();
    db.execute_source(&wl.script(), &mut std::io::sink())
        .expect("setup script runs");
    (wl, db)
}

fn rats(p: &[i64]) -> Vec<Rat> {
    p.iter().map(|&h| Rat::from_pair(h, 2)).collect()
}

/// The relation without a part that alone covers a grid point the oracle
/// puts in the answer, so dropping it changes the answer.
fn drop_part(
    wl: &dyn Workload,
    name: &str,
    rel: &Relation<DenseOrder>,
    points: &[Vec<i64>],
) -> Relation<DenseOrder> {
    for p in points.iter().filter(|p| wl.expect(name, p)) {
        let at = rats(p);
        let covering: Vec<usize> = (0..rel.num_tuples())
            .filter(|&i| {
                Relation::<DenseOrder>::new(rel.vars().to_vec(), vec![rel.tuples()[i].clone()])
                    .contains(&at)
            })
            .collect();
        if let [only] = covering[..] {
            let rest: Vec<GenTuple<DenseAtom>> = (0..rel.num_tuples())
                .filter(|&i| i != only)
                .map(|i| rel.tuples()[i].clone())
                .collect();
            return Relation::new(rel.vars().to_vec(), rest);
        }
    }
    panic!("no part of `{name}` alone covers a grid point");
}

/// The relation plus one grid point the oracle leaves out of the answer.
fn add_point(
    wl: &dyn Workload,
    name: &str,
    rel: &Relation<DenseOrder>,
    points: &[Vec<i64>],
) -> Relation<DenseOrder> {
    let p = points
        .iter()
        .find(|p| !wl.expect(name, p))
        .unwrap_or_else(|| panic!("`{name}` covers its whole grid"));
    rel.union(&Relation::from_points(rel.vars().to_vec(), [rats(p)]))
}

/// The answer passes its check, and both corruptions fail it.
fn assert_rejects_corruption(
    wl: &dyn Workload,
    name: &str,
    rel: &Relation<DenseOrder>,
    points: &[Vec<i64>],
) {
    check_points(wl, name, rel, points).unwrap_or_else(|e| panic!("engine answer rejected: {e}"));
    let dropped = drop_part(wl, name, rel, points);
    assert!(
        check_points(wl, name, &dropped, points).is_err(),
        "`{name}` with a part dropped passed"
    );
    let added = add_point(wl, name, rel, points);
    assert!(
        check_points(wl, name, &added, points).is_err(),
        "`{name}` with a point added passed"
    );
}

#[test]
fn read_mostly_oracles_reject_corrupted_answers() {
    let (wl, db) = loaded("read-mostly");
    let snap = db.snapshot();
    for &name in wl.reads() {
        let answer = snap.eval_query(name).expect("read evaluates");
        assert_rejects_corruption(wl.as_ref(), name, &answer, &wl.grid(name).points());
    }
    for name in ["R", "B", "S"] {
        assert_rejects_corruption(
            wl.as_ref(),
            name,
            &stored(&snap, name),
            &wl.grid(name).points(),
        );
    }
}

#[test]
fn write_mostly_oracles_reject_corrupted_answers() {
    let (mut wl, db) = loaded("write-mostly");
    let mut rng = Rng::new(5);
    // The views are checked on their whole grids.
    let snap = db.snapshot();
    for name in ["watch", "uncovered"] {
        assert_rejects_corruption(
            wl.as_ref(),
            name,
            &stored(&snap, name),
            &wl.grid(name).points(),
        );
    }
    for &name in wl.reads() {
        let answer = snap.eval_query(name).expect("read evaluates");
        assert_rejects_corruption(wl.as_ref(), name, &answer, &wl.grid(name).points());
    }
    // The stored relation is checked around each commit: an insert whose
    // part went missing, and a delete that left a point behind, both fail.
    loop {
        let op = wl.next_op();
        let (insert, parts) = match &op {
            Op::Insert(_, parts) => (true, parts.clone()),
            Op::Delete(_, parts) => (false, parts.clone()),
            Op::Read(_) => continue,
        };
        let delta: Relation<DenseOrder> = workload::parts_relation(&parts);
        if insert {
            db.insert_relation("W", delta).expect("insert commits");
        } else {
            db.delete_relation("W", delta).expect("delete commits");
        }
        let after = stored(&db.snapshot(), "W");
        let checks = wl.commit_checks(&op, &mut rng);
        let (_, points) = checks
            .iter()
            .find(|(n, _)| *n == "W")
            .expect("W is checked");
        check_points(wl.as_ref(), "W", &after, points).expect("engine state passes");
        let at = rats(&points[2]);
        let corrupted = if insert {
            let kept: Vec<GenTuple<DenseAtom>> = after
                .tuples()
                .iter()
                .filter(|t| {
                    !Relation::<DenseOrder>::new(after.vars().to_vec(), vec![(*t).clone()])
                        .contains(&at)
                })
                .cloned()
                .collect();
            Relation::new(after.vars().to_vec(), kept)
        } else {
            after.union(&Relation::from_points(after.vars().to_vec(), [at]))
        };
        assert!(
            check_points(wl.as_ref(), "W", &corrupted, points).is_err(),
            "corrupted W passed after {op:?}"
        );
        if !insert {
            break;
        }
    }
    // Two paths: a stored view that lost a part, or gained a point, no
    // longer agrees with a fresh evaluation of its definition.
    let snap = db.snapshot();
    let points = wl.grid("watch").points();
    let (kept, fresh) = (
        stored(&snap, "watch"),
        snap.eval_query("watch").expect("view evaluates"),
    );
    agree("watch", &kept, &fresh, &points).expect("the two paths agree");
    assert!(agree(
        "watch",
        &drop_part(wl.as_ref(), "watch", &kept, &points),
        &fresh,
        &points
    )
    .is_err());
    assert!(agree(
        "watch",
        &add_point(wl.as_ref(), "watch", &kept, &points),
        &fresh,
        &points
    )
    .is_err());
}

#[test]
fn fixpoint_refresh_oracles_reject_corrupted_answers() {
    let (wl, db) = loaded("fixpoint-refresh");
    let snap = db.snapshot();
    for &name in wl.reads() {
        let answer = snap.eval_query(name).expect("read evaluates");
        assert_rejects_corruption(wl.as_ref(), name, &answer, &wl.grid(name).points());
    }
    let (edge, tc) = (stored(&snap, "edge"), stored(&snap, "tc"));
    for (name, rel) in [("edge", &edge), ("tc", &tc)] {
        assert_rejects_corruption(wl.as_ref(), name, rel, &wl.grid(name).points());
    }
    // The closure properties hold, fail for a closure missing a part, and
    // fail for one with a point whose successors it lacks: x = -1/2 lies
    // left of every edge, y inside the first edge's x interval.
    check_closure(&edge, &tc).expect("the closure properties hold");
    let points = wl.grid("tc").points();
    assert!(check_closure(&edge, &drop_part(wl.as_ref(), "tc", &tc, &points)).is_err());
    let first_x = edge.tuples()[0]
        .constants()
        .into_iter()
        .next()
        .expect("edge has constants");
    let stray = Relation::from_points(tc.vars().to_vec(), [vec![Rat::from_pair(-1, 2), first_x]]);
    assert!(check_closure(&edge, &tc.union(&stray)).is_err());
}

#[test]
fn quartiles_match_python_statistics() {
    // statistics.quantiles([1, 2, ..., 10], n=4) == [2.75, 5.5, 8.25]
    let values: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&values), [2.75, 5.5, 8.25]);
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: extrapolated
    assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
}

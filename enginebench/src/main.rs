//! The engine benchmark: one seeded workload, driven through the engine's
//! public entry points as a single-client closed loop, with every answer
//! checked against an oracle computed apart from the engine.
//!
//! ```text
//! enginebench --workload <read-mostly|write-mostly|fixpoint-refresh>
//!             --seed <n> --seconds <s> --trace <0|1> [--repeat <k>]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.  `--trace 0` reports the end-to-end
//! metrics of a timed run; `--trace 1` runs a fixed-length prefix of the same
//! operation sequence at the counting theory and reports the per-layer
//! metrics (see README.md).  `--repeat k` runs k fresh processes on seeds
//! `n, n+1, …` and prints each metric's median and quartiles.

mod counting;
mod layers;
#[cfg(test)]
mod selftest;
mod workload;

use counting::Counted;
use frdb_core::dense::{DenseAtom, DenseOrder};
use frdb_core::fo::PlanCache;
use frdb_core::logic::Var;
use frdb_core::relation::Relation;
use frdb_core::schema::RelName;
use frdb_core::theory::Theory;
use frdb_core::Rat;
use frdb_db::{Database, DbConfig, Snapshot};
use frdb_lang::AtomSyntax;
use layers::Layers;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{Op, Rng, Workload, CHECK_SAMPLE};

/// Grid points the end-of-run check samples from each large answer.
const FINAL_SAMPLE: usize = 1024;
/// Commits between two checks that each view equals a fresh evaluation of its
/// definition (and, for `tc`, the closure properties).
const PATH_CHECK_EVERY: usize = 16;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30,
        trace: false,
        repeat: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--repeat" => args.repeat = Some(value.parse().map_err(bad)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if workload::build(&args.workload, 0).is_none() {
        return Err(format!(
            "--workload must be read-mostly, write-mostly or fixpoint-refresh, not `{}`",
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("enginebench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(k) = args.repeat {
        return repeat(&args, k);
    }
    let outcome = if args.trace {
        run::<Counted>(&args, started)
    } else {
        run::<DenseOrder>(&args, started)
    };
    match outcome {
        Ok(outcome) => {
            for e in &outcome.errors {
                eprintln!("enginebench: check failed: {e}");
            }
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("enginebench: {e}");
            ExitCode::FAILURE
        }
    }
}

struct Outcome {
    errors: Vec<String>,
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Milliseconds in a duration.
fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The latencies and busy time of one operation cycle.  Every cycle holds the
/// same mix of operations, so a metric is taken in each cycle and the run
/// reports its median over the cycles: a slow spell of the host that covers
/// fewer than half the cycles moves it little.
#[derive(Default)]
struct Window {
    reads: Vec<f64>,
    commits: Vec<f64>,
    busy: Duration,
}

impl Window {
    fn ops_per_s(&self) -> f64 {
        (self.reads.len() + self.commits.len()) as f64 / self.busy.as_secs_f64()
    }
}

/// The median of a sorted sample (the mean of the middle two for an even
/// count).
fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0
}

/// The nearest-rank quantile of a sample.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The process's peak resident set in MiB (`VmHWM` of /proc/self/status).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("malformed VmHWM line")?;
    Ok(kib / 1024.0)
}

/// Checks an engine relation against the workload's oracle on grid points.
fn check_points<T: Theory<A = DenseAtom>>(
    wl: &dyn Workload,
    name: &str,
    rel: &Relation<T>,
    points: &[Vec<i64>],
) -> Result<(), String> {
    for p in points {
        let at: Vec<Rat> = p.iter().map(|&h| Rat::from_pair(h, 2)).collect();
        let (got, want) = (rel.contains(&at), wl.expect(name, p));
        if got != want {
            let shown: Vec<String> = at.iter().map(ToString::to_string).collect();
            return Err(format!(
                "{name}({}): engine says {got}, oracle says {want}",
                shown.join(", ")
            ));
        }
    }
    Ok(())
}

fn stored<T: Theory>(snap: &Snapshot<T>, name: &str) -> Arc<Relation<T>> {
    snap.instance()
        .get_shared(&RelName::new(name))
        .unwrap_or_else(|| panic!("relation `{name}` is declared by the setup script"))
}

/// Checks that two relations agree at every grid point.
fn agree<T: Theory<A = DenseAtom>>(
    name: &str,
    kept: &Relation<T>,
    fresh: &Relation<T>,
    points: &[Vec<i64>],
) -> Result<(), String> {
    for p in points {
        let at: Vec<Rat> = p.iter().map(|&h| Rat::from_pair(h, 2)).collect();
        if kept.contains(&at) != fresh.contains(&at) {
            return Err(format!(
                "view `{name}` differs from a fresh evaluation of its definition at {p:?} (half units)"
            ));
        }
    }
    Ok(())
}

/// Checks that each view's stored value agrees with a fresh evaluation of its
/// definition — two independent paths to the same answer — on sampled grid
/// points.  (`Relation::equivalent` would decide it exactly, but on a view of
/// a few hundred parts it does not finish in a minute.)
fn check_views<T: Theory<A = DenseAtom>>(
    wl: &dyn Workload,
    snap: &Snapshot<T>,
    views: &[&str],
    rng: &mut Rng,
) -> Result<(), String> {
    for &view in views {
        if snap.query(view).is_none() {
            continue;
        }
        let fresh = snap.eval_query(view).map_err(|e| e.to_string())?;
        let points = wl.grid(view).sample(CHECK_SAMPLE, rng);
        agree(view, &stored(snap, view), &fresh, &points)?;
    }
    Ok(())
}

/// Properties the closure must have whatever the oracle says:
/// `edge ⊆ tc` and `tc ∘ edge ⊆ tc`.
fn check_closure<T: Theory>(edge: &Relation<T>, tc: &Relation<T>) -> Result<(), String> {
    let (x, y, z) = (Var::new("x"), Var::new("y"), Var::new("z"));
    let tc_xy = tc.rename(vec![x.clone(), y.clone()]);
    if !edge.rename(vec![x.clone(), y.clone()]).subset_of(&tc_xy) {
        return Err("edge ⊄ tc".into());
    }
    let composed = tc
        .rename(vec![x.clone(), z.clone()])
        .join(&edge.rename(vec![z.clone(), y.clone()]))
        .project_out(&[z])
        .with_columns(vec![x, y]);
    if !composed.subset_of(&tc_xy) {
        return Err("tc ∘ edge ⊄ tc".into());
    }
    Ok(())
}

/// Loads the setup script into a fresh database with a private plan cache
/// (so cache counters see only this run), then reads every query once as
/// warm-up.
fn load<T: AtomSyntax<A = DenseAtom>>(
    wl: &dyn Workload,
    script: &str,
) -> Result<(Database<T>, Arc<PlanCache>), String> {
    let cache = Arc::new(PlanCache::new());
    let db: Database<T> = Database::with_config(DbConfig {
        plan_cache: Some(Arc::clone(&cache)),
        ..DbConfig::default()
    });
    db.execute_source(script, &mut std::io::sink())
        .map_err(|e| format!("setup script: {e}"))?;
    for &name in wl.reads() {
        db.snapshot()
            .eval_query(name)
            .map_err(|e| format!("warm-up read {name}: {e}"))?;
    }
    Ok((db, cache))
}

fn run<T: AtomSyntax<A = DenseAtom>>(args: &Args, started: Instant) -> Result<Outcome, String> {
    let mut wl = workload::build(&args.workload, args.seed).expect("workload name checked");
    let mut check_rng = Rng::new(args.seed.wrapping_mul(31).wrapping_add(7));
    let script = wl.script();
    let mut layers = args.trace.then(Layers::default);
    if let Some(layers) = layers.as_mut() {
        layers.setup::<T>(&script)?;
    }

    // Set-up: one cold load of the script, timed from process start.
    let (db, cache) = load::<T>(wl.as_ref(), &script)?;
    let setup = started.elapsed();

    let mut errors: Vec<String> = Vec::new();
    let mut record = |r: Result<(), String>| {
        if let Err(e) = r {
            if errors.len() < 8 {
                errors.push(e);
            }
        }
    };
    let mut windows: Vec<Window> = Vec::new();
    let (mut attempted, mut failed, mut committed) = (0usize, 0usize, 0usize);
    let mut pre_insert: Option<Arc<Relation<T>>> = None;
    let deadline = Duration::from_secs(args.seconds);
    let loop_start = Instant::now();
    if let Some(layers) = layers.as_mut() {
        layers.begin(&db.metrics());
    }
    loop {
        let more = if args.trace {
            attempted < wl.traced_ops()
        } else {
            attempted % wl.cycle() != 0 || loop_start.elapsed() < deadline
        };
        if !more {
            break;
        }
        if attempted % wl.cycle() == 0 {
            windows.push(Window::default());
        }
        let window = windows.last_mut().expect("a window is open");
        let op = wl.next_op();
        attempted += 1;
        match op {
            Op::Read(name) => {
                if let Some(layers) = layers.as_mut() {
                    layers.before_op();
                }
                let t0 = Instant::now();
                let snap = db.snapshot();
                let answer = snap.eval_query(name);
                let took = t0.elapsed();
                let answer = match answer {
                    Ok(answer) => answer,
                    Err(e) => {
                        failed += 1;
                        record(Err(format!("read {name}: {e}")));
                        continue;
                    }
                };
                window.busy += took;
                window.reads.push(ms(took));
                if let Some(layers) = layers.as_mut() {
                    layers.read(&snap, name, &answer)?;
                }
                let points = wl.grid(name).sample(CHECK_SAMPLE, &mut check_rng);
                record(check_points(wl.as_ref(), name, &answer, &points));
            }
            Op::Insert(rel, ref parts) | Op::Delete(rel, ref parts) => {
                let insert = matches!(op, Op::Insert(..));
                // Built outside the timed span and the counting bracket.
                let incoming: Relation<T> = workload::parts_relation(parts);
                let before = db.snapshot();
                if let Some(layers) = layers.as_mut() {
                    layers.before_op();
                }
                let t0 = Instant::now();
                let done = if insert {
                    db.insert_relation(rel, incoming.clone())
                } else {
                    db.delete_relation(rel, incoming.clone())
                };
                let took = t0.elapsed();
                if let Err(e) = done {
                    failed += 1;
                    record(Err(format!("commit to {rel}: {e}")));
                    continue;
                }
                window.busy += took;
                window.commits.push(ms(took));
                committed += 1;
                let after = db.snapshot();
                if let Some(layers) = layers.as_mut() {
                    let dependents = wl.dependents(rel);
                    layers.commit(&before, &after, &op, &incoming, took, dependents)?;
                }
                for (name, points) in wl.commit_checks(&op, &mut check_rng) {
                    record(check_points(
                        wl.as_ref(),
                        name,
                        &stored(&after, name),
                        &points,
                    ));
                }
                if wl.deletes_restore() {
                    // A delete of the parts the inserts since the last delete
                    // added must give back the stored value from before them.
                    if insert {
                        pre_insert.get_or_insert_with(|| stored(&before, rel));
                    } else if let Some(old) = pre_insert.take() {
                        if stored(&after, rel).tuples() != old.tuples() {
                            record(Err(format!(
                                "inserts then a delete of fresh parts did not restore `{rel}`"
                            )));
                        }
                    }
                }
                if committed % PATH_CHECK_EVERY == 0 {
                    record(check_views(wl.as_ref(), &after, wl.views(), &mut check_rng));
                    if let Some((edge, tc)) = wl.closure() {
                        record(check_closure(&stored(&after, edge), &stored(&after, tc)));
                    }
                }
            }
        }
    }
    let (cache_end, metrics_end) = (cache.stats(), db.metrics());
    if let (Some(layers), Some((rel, part))) = (layers.as_mut(), wl.bulk_delete_probe()) {
        layers.bulk_delete(&db, rel, part)?;
    }

    // End of run: every read and every stored or derived relation against
    // the oracle on (a large sample of) its whole grid, and the two-path,
    // closure and restore checks once more.
    let snap = db.snapshot();
    for &name in wl.reads() {
        match snap.eval_query(name) {
            Ok(answer) => {
                let points = wl.grid(name).sample(FINAL_SAMPLE, &mut check_rng);
                record(check_points(wl.as_ref(), name, &answer, &points));
            }
            Err(e) => record(Err(format!("final read {name}: {e}"))),
        }
    }
    for &name in wl.relations() {
        let points = wl.grid(name).sample(FINAL_SAMPLE, &mut check_rng);
        record(check_points(
            wl.as_ref(),
            name,
            &stored(&snap, name),
            &points,
        ));
    }
    record(check_views(wl.as_ref(), &snap, wl.views(), &mut check_rng));
    if let Some((edge, tc)) = wl.closure() {
        record(check_closure(&stored(&snap, edge), &stored(&snap, tc)));
    }
    if let Some((rel, part)) = wl.restore_probe() {
        record(check_restore(&db, rel, part));
    }

    for w in &mut windows {
        w.reads.sort_by(f64::total_cmp);
        w.commits.sort_by(f64::total_cmp);
    }
    windows.retain(|w| !w.reads.is_empty() && !w.commits.is_empty());
    if windows.is_empty() {
        return Err("the run completed no cycle with a read and a commit".into());
    }
    let metrics = match layers {
        Some(layers) => layers.finish(&cache_end, &metrics_end),
        None => {
            let per_window = |f: &dyn Fn(&Window) -> f64| {
                let mut values: Vec<f64> = windows.iter().map(f).collect();
                values.sort_by(f64::total_cmp);
                median(&values)
            };
            vec![
                ("setup_s".to_string(), setup.as_secs_f64(), "s"),
                (
                    "ops_per_s".to_string(),
                    per_window(&Window::ops_per_s),
                    "op/s",
                ),
                (
                    "read_p50_ms".to_string(),
                    per_window(&|w| quantile(&w.reads, 0.5)),
                    "ms",
                ),
                (
                    "read_p90_ms".to_string(),
                    per_window(&|w| quantile(&w.reads, 0.9)),
                    "ms",
                ),
                (
                    "commit_p50_ms".to_string(),
                    per_window(&|w| quantile(&w.commits, 0.5)),
                    "ms",
                ),
                (
                    "commit_p90_ms".to_string(),
                    per_window(&|w| quantile(&w.commits, 0.9)),
                    "ms",
                ),
                ("peak_rss_mb".to_string(), peak_rss_mb()?, "MB"),
            ]
        }
    };
    Ok(Outcome {
        errors,
        attempted,
        failed,
        metrics,
    })
}

/// Inserting a part disjoint from everything stored and deleting it again
/// must leave the stored relation exactly as it was, part for part.
fn check_restore<T: AtomSyntax<A = DenseAtom>>(
    db: &Database<T>,
    rel: &str,
    part: workload::Part,
) -> Result<(), String> {
    let before = stored(&db.snapshot(), rel);
    db.insert_relation(rel, part.relation())
        .and_then(|()| db.delete_relation(rel, part.relation()))
        .map_err(|e| format!("restore probe: {e}"))?;
    if stored(&db.snapshot(), rel).tuples() != before.tuples() {
        return Err(format!(
            "insert then delete of a fresh disjoint part did not restore `{rel}`"
        ));
    }
    Ok(())
}

/// The quartiles of a sample as Python's `statistics.quantiles(n=4)` gives
/// them (the default exclusive method).
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    if n == 1 {
        return [sorted[0]; 3];
    }
    std::array::from_fn(|i| {
        let m = (i + 1) * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        // `delta` may leave 0..=4 after clamping: Python extrapolates then.
        let delta = m as f64 - (4 * j) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

/// Runs the workload `k` times, each in a fresh process on the next seed, and
/// prints every metric's median, quartiles and quartile spread.
fn repeat(args: &Args, k: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("enginebench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut samples: Vec<(String, String, Vec<f64>)> = Vec::new();
    let mut failed_shares = Vec::new();
    for i in 0..k {
        let seed = args.seed + i as u64;
        let out = std::process::Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let out = match out {
            Ok(out) if out.status.success() => out,
            Ok(out) => {
                eprintln!("enginebench: seed {seed} exited with {}", out.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("enginebench: seed {seed}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().last().unwrap_or_default().to_string();
        println!("seed {seed}: {line}");
        if !line.starts_with("{\"correct\": true") {
            eprintln!("enginebench: seed {seed} did not report a correct run");
            return ExitCode::FAILURE;
        }
        let field = |key: &str| -> f64 {
            line.split(&format!("\"{key}\": "))
                .nth(1)
                .and_then(|rest| rest.split([',', '}']).next())
                .and_then(|v| v.parse().ok())
                .unwrap_or(f64::NAN)
        };
        failed_shares.push(field("failed") / field("attempted"));
        let metrics = line.split("\"metrics\": {").nth(1).unwrap_or_default();
        for entry in metrics.split("}, ") {
            let Some((name, rest)) = entry.split_once("\": {\"value\": ") else {
                continue;
            };
            let name = name.trim_start_matches('"').to_string();
            let (value, unit) = rest.split_once(", \"unit\": \"").unwrap_or((rest, ""));
            let unit = unit.trim_end_matches(['"', '}']).to_string();
            let value: f64 = value.parse().unwrap_or(f64::NAN);
            match samples.iter_mut().find(|(n, _, _)| *n == name) {
                Some((_, _, values)) => values.push(value),
                None => samples.push((name, unit, vec![value])),
            }
        }
    }
    println!(
        "{} runs of {}, seeds {}..{}",
        k,
        args.workload,
        args.seed,
        args.seed + k as u64 - 1
    );
    println!("failed share per run: {failed_shares:?}");
    println!(
        "{:<32} {:>8} {:>14} {:>14} {:>14} {:>8}",
        "metric", "unit", "q1", "median", "q3", "spread"
    );
    for (name, unit, mut values) in samples {
        values.sort_by(f64::total_cmp);
        let [q1, med, q3] = quartiles(&values);
        let spread = if med == 0.0 { 0.0 } else { (q3 - q1) / med };
        println!("{name:<32} {unit:>8} {q1:>14.4} {med:>14.4} {q3:>14.4} {spread:>8.4}");
    }
    ExitCode::SUCCESS
}

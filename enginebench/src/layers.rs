//! The traced run's per-layer measurements, taken from outside the engine.
//!
//! Counts of engine work (kernel calls, join strategies, column indexes) are
//! bracketed around the workload's own engine calls only.  Layer times come
//! from calling each layer's public function again on the same inputs right
//! after the operation — statistics, re-optimization, plan evaluation, delta
//! application, the fixpoint — so the operation itself is not slowed by the
//! timers and the re-run is what the layer costs on that input.

use crate::counting::{kernel_calls, KERNEL_CALLS};
use crate::workload::{Op, Part};
use crate::{ms, stored};
use frdb_core::dense::DenseAtom;
use frdb_core::fo::{PlanCache, PlanCacheStats, PlanConfig, QueryTrace, Statistics};
use frdb_core::metrics::{JoinStrategyCounts, MetricsSnapshot};
use frdb_core::relation::{column_index_counters, join_strategy_counters, Relation};
use frdb_core::theory::Theory;
use frdb_db::{Database, Snapshot};
use frdb_lang::{parse_script, AtomSyntax, Stmt};
use std::time::{Duration, Instant};

#[derive(Default)]
pub struct Layers {
    script_bytes: usize,
    parse_ms: f64,
    compile_ms: f64,
    collect_ms: f64,
    reoptimize_ms: f64,
    eval_ms: f64,
    output_parts: usize,
    pairs_total: u64,
    pairs_candidate: u64,
    strategies: JoinStrategyCounts,
    index_builds: u64,
    index_reuses: u64,
    merge_ms: f64,
    union_ms: f64,
    difference_ms: f64,
    parts_added: usize,
    parts_removed: usize,
    commit_ms: f64,
    refresh_ms: f64,
    published_parts: usize,
    fixpoint_ms: f64,
    iterations: usize,
    round_new_tuples: usize,
    bulk_delete_ms: f64,
    kernel: [u64; 8],
    mark: Option<([u64; 8], JoinStrategyCounts, (u64, u64))>,
    views_start: (u64, u64),
}

/// The wall time of a call, in milliseconds.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, ms(t0.elapsed()))
}

/// The plan-boundary merge: the trace's end-to-end time minus the root span,
/// read from the timed rendering's first span line (`…, 1.23 ms]`).
fn merge_ms(trace: &QueryTrace) -> f64 {
    let rendered = trace.timed().to_string();
    let root = rendered
        .lines()
        .nth(1)
        .and_then(|line| line.strip_suffix(" ms]"))
        .and_then(|line| line.rsplit(", ").next())
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0);
    (ms(trace.total()) - root).max(0.0)
}

/// Sums the join reports (`… <candidate>/<total> pairs`) of a rendered trace.
fn join_pairs(rendered: &str) -> (u64, u64) {
    let mut sums = (0, 0);
    for line in rendered.lines() {
        for (at, _) in line.match_indices(" pairs") {
            let token = line[..at].rsplit(' ').next().unwrap_or_default();
            if let Some((c, t)) = token.split_once('/') {
                if let (Ok(c), Ok(t)) = (c.parse::<u64>(), t.parse::<u64>()) {
                    sums.0 += c;
                    sums.1 += t;
                }
            }
        }
    }
    sums
}

fn add_strategies(sum: &mut JoinStrategyCounts, d: &JoinStrategyCounts) {
    sum.pin_hash += d.pin_hash;
    sum.index_sweep += d.index_sweep;
    sum.box_sweep += d.box_sweep;
    sum.scan += d.scan;
    sum.mixed += d.mixed;
}

impl Layers {
    /// Times parsing the setup script and compiling each of its queries into
    /// a cold private plan cache.
    pub fn setup<T: AtomSyntax>(&mut self, script: &str) -> Result<(), String> {
        self.script_bytes = script.len();
        let (parsed, took) = timed(|| parse_script::<T>(script));
        self.parse_ms = took;
        let parsed = parsed.map_err(|e| format!("setup script: {e}"))?;
        let cache = PlanCache::new();
        for stmt in &parsed.stmts {
            if let Stmt::Query { free, formula, .. } = &stmt.node {
                let (_, took) = timed(|| cache.compile::<T>(formula, free, &PlanConfig::default()));
                self.compile_ms += took;
            }
        }
        Ok(())
    }

    /// Marks the start of the timed loop.
    pub fn begin(&mut self, metrics: &MetricsSnapshot) {
        self.views_start = (metrics.views_maintained, metrics.views_recomputed);
    }

    /// Opens a counting bracket around one engine operation.
    pub fn before_op(&mut self) {
        self.mark = Some((
            kernel_calls(),
            join_strategy_counters(),
            column_index_counters(),
        ));
    }

    /// Closes the bracket opened by [`Layers::before_op`].
    fn after_op(&mut self) {
        let (kernel, strategies, (builds, reuses)) =
            self.mark.take().expect("before_op opens every bracket");
        let now = kernel_calls();
        for (sum, (k1, k0)) in self.kernel.iter_mut().zip(now.iter().zip(kernel)) {
            *sum += k1 - k0;
        }
        add_strategies(
            &mut self.strategies,
            &join_strategy_counters().since(&strategies),
        );
        let (b1, r1) = column_index_counters();
        self.index_builds += b1 - builds;
        self.index_reuses += r1 - reuses;
    }

    /// Accounts one read and re-runs its layers: statistics, re-optimization,
    /// evaluation, and a traced evaluation for the join reports and merge.
    pub fn read<T: Theory>(
        &mut self,
        snap: &Snapshot<T>,
        name: &str,
        answer: &Relation<T>,
    ) -> Result<(), String> {
        self.after_op();
        self.output_parts += answer.num_tuples();
        let query = snap
            .query(name)
            .ok_or_else(|| format!("unknown query {name}"))?;
        let instance = snap.instance();
        let scope = query.compiled().relations().iter().map(|(n, _)| n);
        let (statistics, took) = timed(|| Statistics::collect_only(instance, scope));
        self.collect_ms += took;
        let (plan, took) = timed(|| query.compiled().optimized_for(&statistics));
        self.reoptimize_ms += took;
        let (evaluated, took) = timed(|| plan.eval(instance));
        self.eval_ms += took;
        evaluated.map_err(|e| format!("re-evaluating {name}: {e}"))?;
        let (_, trace) = plan
            .eval_traced(instance)
            .map_err(|e| format!("tracing {name}: {e}"))?;
        self.merge_ms += merge_ms(&trace);
        let (candidate, total) = join_pairs(&trace.to_string());
        self.pairs_candidate += candidate;
        self.pairs_total += total;
        Ok(())
    }

    /// Accounts one commit and re-runs its layers: the same delta applied to
    /// the pre-commit value, and the active program's fixpoint on the
    /// post-commit extensional relations.
    pub fn commit<T: Theory<A = DenseAtom>>(
        &mut self,
        before: &Snapshot<T>,
        after: &Snapshot<T>,
        op: &Op,
        incoming: &Relation<T>,
        took: Duration,
        dependents: &[&str],
    ) -> Result<(), String> {
        self.after_op();
        let (rel, insert) = match op {
            Op::Insert(rel, _) => (*rel, true),
            Op::Delete(rel, _) => (*rel, false),
            Op::Read(_) => unreachable!("reads are not commits"),
        };
        let old = stored(before, rel);
        let delta = incoming.rename(old.vars().to_vec());
        let ((_, report), delta_ms) = timed(|| {
            if insert {
                old.union_delta_report(&delta)
            } else {
                old.difference_delta_report(&delta)
            }
        });
        if insert {
            self.union_ms += delta_ms;
        } else {
            self.difference_ms += delta_ms;
        }
        self.parts_added += report.added.len();
        self.parts_removed += report.removed.len();
        self.commit_ms += ms(took);
        self.refresh_ms += (ms(took) - delta_ms).max(0.0);
        self.published_parts += std::iter::once(rel)
            .chain(dependents.iter().copied())
            .map(|name| stored(after, name).num_tuples())
            .sum::<usize>();
        if let Some(program) = after.program("closure") {
            let idb = program.idb_schema().map_err(|e| e.to_string())?;
            let mut edb = after.instance().clone();
            for head in idb.keys() {
                edb.remove(head);
            }
            let (result, took) = timed(|| program.run(&edb));
            self.fixpoint_ms += took;
            self.iterations += result.map_err(|e| e.to_string())?.iterations;
            let (_, trace) = after.trace_fixpoint("closure").map_err(|e| e.to_string())?;
            self.round_new_tuples += trace.rounds.iter().flatten().map(|(_, n)| n).sum::<usize>();
        }
        Ok(())
    }

    /// Times one delete of a part loaded at setup, then puts the part back.
    /// The operation sequence never deletes such parts (see README.md), so
    /// this is the one place the benchmark times that path.
    pub fn bulk_delete<T: Theory<A = DenseAtom>>(
        &mut self,
        db: &Database<T>,
        rel: &str,
        part: Part,
    ) -> Result<(), String> {
        let (deleted, took) = timed(|| db.delete_relation(rel, part.relation()));
        deleted.map_err(|e| format!("bulk-delete probe: {e}"))?;
        self.bulk_delete_ms = took;
        db.insert_relation(rel, part.relation())
            .map_err(|e| format!("bulk-delete probe, putting the part back: {e}"))
    }

    /// The per-layer metrics, by name, value and unit.
    pub fn finish(
        self,
        cache: &PlanCacheStats,
        metrics: &MetricsSnapshot,
    ) -> Vec<(String, f64, &'static str)> {
        let count = |n: u64| n as f64;
        let size = |n: usize| n as f64;
        let entails = self.kernel[1];
        let outputs = self.output_parts + self.published_parts;
        let mut out: Vec<(String, f64, &'static str)> = vec![
            ("lang.parse_ms".into(), self.parse_ms, "ms"),
            ("lang.script_bytes".into(), size(self.script_bytes), "bytes"),
            ("cache.compile_ms".into(), self.compile_ms, "ms"),
            (
                "cache.compile_misses".into(),
                count(cache.compile_misses),
                "count",
            ),
            (
                "cache.reoptimize_hits".into(),
                count(cache.reoptimize_hits),
                "count",
            ),
            (
                "cache.reoptimize_misses".into(),
                count(cache.reoptimize_misses),
                "count",
            ),
            ("stats.collect_ms".into(), self.collect_ms, "ms"),
            ("optimize.reoptimize_ms".into(), self.reoptimize_ms, "ms"),
            ("eval.ms".into(), self.eval_ms, "ms"),
            ("eval.output_parts".into(), size(self.output_parts), "count"),
            (
                "eval.join_pairs_total".into(),
                count(self.pairs_total),
                "count",
            ),
            (
                "eval.join_pairs_candidate".into(),
                count(self.pairs_candidate),
                "count",
            ),
            (
                "eval.join_pin_hash".into(),
                count(self.strategies.pin_hash),
                "count",
            ),
            (
                "eval.join_index_sweep".into(),
                count(self.strategies.index_sweep),
                "count",
            ),
            (
                "eval.join_box_sweep".into(),
                count(self.strategies.box_sweep),
                "count",
            ),
            (
                "eval.join_scan".into(),
                count(self.strategies.scan),
                "count",
            ),
            (
                "eval.join_mixed".into(),
                count(self.strategies.mixed),
                "count",
            ),
            (
                "eval.index_builds".into(),
                count(self.index_builds),
                "count",
            ),
            (
                "eval.index_reuses".into(),
                count(self.index_reuses),
                "count",
            ),
            ("merge.ms".into(), self.merge_ms, "ms"),
            ("relation.union_delta_ms".into(), self.union_ms, "ms"),
            (
                "relation.difference_delta_ms".into(),
                self.difference_ms,
                "ms",
            ),
            (
                "relation.parts_added".into(),
                size(self.parts_added),
                "count",
            ),
            (
                "relation.parts_removed".into(),
                size(self.parts_removed),
                "count",
            ),
            ("db.commit_ms".into(), self.commit_ms, "ms"),
            ("db.bulk_delete_ms".into(), self.bulk_delete_ms, "ms"),
            ("db.refresh_ms".into(), self.refresh_ms, "ms"),
            (
                "db.views_maintained".into(),
                count(metrics.views_maintained - self.views_start.0),
                "count",
            ),
            (
                "db.views_recomputed".into(),
                count(metrics.views_recomputed - self.views_start.1),
                "count",
            ),
            (
                "db.published_parts".into(),
                size(self.published_parts),
                "count",
            ),
            ("datalog.fixpoint_ms".into(), self.fixpoint_ms, "ms"),
            ("datalog.iterations".into(), size(self.iterations), "count"),
            (
                "datalog.round_new_tuples".into(),
                size(self.round_new_tuples),
                "count",
            ),
        ];
        for (name, calls) in KERNEL_CALLS.iter().zip(self.kernel) {
            out.push((format!("kernel.{name}"), count(calls), "count"));
        }
        out.push((
            "kernel.entails_per_output_part".into(),
            count(entails) / size(outputs.max(1)),
            "ratio",
        ));
        out
    }
}

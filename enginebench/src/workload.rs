//! The three workloads: inputs made from a seed, the setup script, the
//! operation sequence, and the oracles that say what every answer must be.
//!
//! Every generated constant is an integer, so every relation the engine
//! stores or returns is a union of cells of the integer arrangement.  The
//! oracles therefore work in **half units** (`h = 2·value`): a point of the
//! half-integer grid is a `Vec<i64>` of half units, and the expected
//! membership comes from plain integer arithmetic on the raw intervals, boxes
//! and edges, never from the engine.

use frdb_core::dense::DenseAtom;
use frdb_core::logic::{Term, Var};
use frdb_core::relation::{GenTuple, Relation};
use frdb_core::theory::Theory;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// SplitMix64: the benchmark's only source of randomness, so one seed fixes
/// every input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        let span = u64::try_from(hi - lo + 1).expect("non-empty range");
        lo + i64::try_from(self.next_u64() % span).expect("span fits i64")
    }

    /// A uniform index below `n`.
    pub fn index(&mut self, n: usize) -> usize {
        usize::try_from(self.next_u64() % n as u64).expect("index fits usize")
    }

    pub fn shuffle<X>(&mut self, items: &mut [X]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.index(i + 1));
        }
    }
}

/// One generalized tuple of generated data, in integer coordinates; every
/// bound is closed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Part {
    /// `lo ≤ x ≤ hi`.
    Interval(i64, i64),
    /// `x0 ≤ x ≤ x1 ∧ y0 ≤ y ≤ y1`.
    Box(i64, i64, i64, i64),
    /// `x = a ∧ y = b`.
    Point(i64, i64),
}

impl Part {
    pub fn arity(self) -> usize {
        match self {
            Part::Interval(..) => 1,
            Part::Box(..) | Part::Point(..) => 2,
        }
    }

    fn atoms(self) -> Vec<DenseAtom> {
        let (x, y) = (|| Term::var("x"), || Term::var("y"));
        match self {
            Part::Interval(lo, hi) => vec![
                DenseAtom::le(Term::cst(lo), x()),
                DenseAtom::le(x(), Term::cst(hi)),
            ],
            Part::Box(x0, x1, y0, y1) => vec![
                DenseAtom::le(Term::cst(x0), x()),
                DenseAtom::le(x(), Term::cst(x1)),
                DenseAtom::le(Term::cst(y0), y()),
                DenseAtom::le(y(), Term::cst(y1)),
            ],
            Part::Point(a, b) => vec![
                DenseAtom::eq(x(), Term::cst(a)),
                DenseAtom::eq(y(), Term::cst(b)),
            ],
        }
    }

    /// The part as a one-tuple engine relation over `x` (and `y`).
    pub fn relation<T: Theory<A = DenseAtom>>(self) -> Relation<T> {
        parts_relation(&[self])
    }

    /// The part in the surface syntax of a relation literal.
    fn literal(self) -> String {
        match self {
            Part::Interval(lo, hi) => format!("({lo} <= x and x <= {hi})"),
            Part::Box(x0, x1, y0, y1) => {
                format!("({x0} <= x and x <= {x1} and {y0} <= y and y <= {y1})")
            }
            Part::Point(a, b) => format!("(x = {a} and y = {b})"),
        }
    }

    /// Whether the part contains the half-unit point `h`.
    pub fn contains(self, h: &[i64]) -> bool {
        match self {
            Part::Interval(lo, hi) => within(h[0], lo, hi),
            Part::Box(x0, x1, y0, y1) => within(h[0], x0, x1) && within(h[1], y0, y1),
            Part::Point(a, b) => h[0] == 2 * a && h[1] == 2 * b,
        }
    }
}

/// Parts of one arity as an engine relation over `x` (and `y`).
pub fn parts_relation<T: Theory<A = DenseAtom>>(parts: &[Part]) -> Relation<T> {
    let tuples = parts.iter().map(|p| GenTuple::new(p.atoms())).collect();
    Relation::new(columns(parts[0].arity()), tuples)
}

/// The column variables of an arity-1 or arity-2 relation.
pub fn columns(arity: usize) -> Vec<Var> {
    ["x", "y"][..arity].iter().map(Var::new).collect()
}

/// Whether half-unit `h` lies in the closed integer interval `[lo, hi]`.
fn within(h: i64, lo: i64, hi: i64) -> bool {
    2 * lo <= h && h <= 2 * hi
}

/// Whether the closed integer intervals `[a0, a1]` and `[b0, b1]` meet.
fn meet(a0: i64, a1: i64, b0: i64, b1: i64) -> bool {
    a0.max(b0) <= a1.min(b1)
}

fn relation_literal(name: &str, arity: usize, parts: &[Part]) -> String {
    let cols = ["x", "y"][..arity].join(", ");
    let body = if parts.is_empty() {
        "false".to_string()
    } else {
        parts
            .iter()
            .map(|p| p.literal())
            .collect::<Vec<_>>()
            .join("\n    or ")
    };
    format!("{name} := {{({cols}) | {body}}};\n")
}

/// A half-unit grid: one inclusive range per axis.
#[derive(Clone, Debug)]
pub struct Grid(pub Vec<(i64, i64)>);

impl Grid {
    pub fn len(&self) -> usize {
        self.0
            .iter()
            .map(|&(lo, hi)| usize::try_from(hi - lo + 1).expect("non-empty axis"))
            .product()
    }

    /// Every point of the grid.
    pub fn points(&self) -> Vec<Vec<i64>> {
        let mut out = vec![Vec::new()];
        for &(lo, hi) in &self.0 {
            out = out
                .into_iter()
                .flat_map(|p| {
                    (lo..=hi).map(move |h| {
                        let mut q = p.clone();
                        q.push(h);
                        q
                    })
                })
                .collect();
        }
        out
    }

    /// Every point when the grid holds at most `n`, else `n` random points.
    pub fn sample(&self, n: usize, rng: &mut Rng) -> Vec<Vec<i64>> {
        if self.len() <= n {
            return self.points();
        }
        (0..n)
            .map(|_| self.0.iter().map(|&(lo, hi)| rng.range(lo, hi)).collect())
            .collect()
    }
}

/// A read, or a commit of one generated part into a stored relation.
#[derive(Clone, Debug)]
pub enum Op {
    Read(&'static str),
    Insert(&'static str, Vec<Part>),
    Delete(&'static str, Vec<Part>),
}

/// What the runner needs from a workload.  The model behind it replays every
/// commit it hands out, so [`Workload::expect`] always describes the state
/// after the last operation.
pub trait Workload {
    /// The setup script: schema, data, queries, views and programs.
    fn script(&self) -> String;
    /// The read queries, each evaluated once during setup as warm-up.
    fn reads(&self) -> &'static [&'static str];
    /// The order reads cycle through.  Unequal shares keep the median read
    /// inside one query's latency distribution instead of on the boundary
    /// between two.
    fn read_cycle(&self) -> &'static [&'static str] {
        self.reads()
    }
    /// The next operation; advances the model past it.
    fn next_op(&mut self) -> Op;
    /// Whether the half-unit point `h` belongs to the named query answer or
    /// stored relation in the current state.
    fn expect(&self, name: &str, h: &[i64]) -> bool;
    /// The grid that spans every constant the named answer can mention.
    fn grid(&self, name: &str) -> Grid;
    /// Points to check on each relation a commit changed (in the model's
    /// post-commit state).
    fn commit_checks(&self, op: &Op, rng: &mut Rng) -> Vec<(&'static str, Vec<Vec<i64>>)>;
    /// Materialized views and derived relations a commit to `rel` refreshes.
    fn dependents(&self, rel: &str) -> &'static [&'static str];
    /// Whether every delete removes exactly the parts the inserts since the
    /// previous delete added, so the stored relation must return to its value
    /// before those inserts, part for part.
    fn deletes_restore(&self) -> bool {
        false
    }
    /// Operations in one full cycle of the sequence: every kind of read and
    /// commit in its every position.  A timed run stops only between two
    /// cycles, so no run ends with part of a cycle's mix.
    fn cycle(&self) -> usize;
    /// Operations the traced run executes: a fixed prefix of the sequence,
    /// so its counts repeat exactly for a seed.
    fn traced_ops(&self) -> usize;
    /// Stored and derived relations checked against the oracle at the end.
    fn relations(&self) -> &'static [&'static str];
    /// Materialized views whose stored value must agree with a fresh
    /// evaluation of their definition.
    fn views(&self) -> &'static [&'static str] {
        &[]
    }
    /// An edge relation and its transitive closure, which must satisfy
    /// `edge ⊆ tc` and `tc ∘ edge ⊆ tc`.
    fn closure(&self) -> Option<(&'static str, &'static str)> {
        None
    }
    /// A stored relation and a part disjoint from everything it can hold:
    /// inserting and then deleting the part must leave the relation exactly
    /// as it was.
    fn restore_probe(&self) -> Option<(&'static str, Part)> {
        None
    }
    /// A stored relation and a part of it loaded at setup and never deleted
    /// by the operation sequence, whose delete (put back right after) the
    /// traced run times on its own.
    fn bulk_delete_probe(&self) -> Option<(&'static str, Part)> {
        None
    }
}

/// Builds the named workload from a seed.
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    let rng = Rng::new(seed);
    Some(match name {
        "read-mostly" => Box::new(ReadMostly::new(rng)),
        "write-mostly" => Box::new(WriteMostly::new(rng)),
        "fixpoint-refresh" => Box::new(FixpointRefresh::new(rng)),
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// read-mostly
// ---------------------------------------------------------------------------

/// Base data lies in `[0, RM_BASE]`; parts that commits add and remove again
/// lie in `[RM_EXTRA_LO, RM_EXTRA_HI]`, disjoint from it.  Both are shifted by
/// the seed's offset (see [`ReadMostly::new`]).
const RM_BASE: i64 = 24;
const RM_EXTRA_LO: i64 = 26;
const RM_EXTRA_HI: i64 = 30;
/// The largest offset a seed adds to every constant of `R` and `B`.
const RM_MAX_OFFSET: i64 = 40;
/// Seeds the jitter of `R`'s intervals and `B`'s boxes, the same for every
/// run (see [`ReadMostly::new`]).
const RM_SHAPE_SEED: u64 = 6;
/// Prime, so the circulant graph's hop sets never collide.
const RM_NODES: i64 = 11;
const RM_QUERIES: [&str; 7] = [
    "gap",
    "shadow",
    "selfjoin",
    "twohop",
    "zigzag",
    "iffshadow",
    "neg",
];
/// Reads of each query per round, in the order of [`RM_QUERIES`].  The four
/// cheap shapes hold two fifths of the reads, `twohop` the next fifth and
/// `selfjoin`, the slowest, the last: so the median read is the middle of
/// `twohop`'s latencies and the 90th percentile the middle of `selfjoin`'s,
/// not a boundary between two queries whose costs move with the seed.
const RM_SHARES: [usize; 7] = [2, 2, 4, 4, 4, 2, 2];
/// Reads per round, in a shuffled order.
const RM_READS_PER_ROUND: usize = 20;
/// Reads between two commits: a round is ten reads, a commit, ten reads and
/// a commit.
const RM_READS_PER_COMMIT: usize = 10;
/// The commits, in turn, as (relation, insert?): two
/// inserts into R then a delete of both, the same for S, and for B a delete
/// after each insert.  The stored relations stay the same size all run;
/// deletes of B, the slowest commits, are a fifth of them, so the 90th
/// percentile commit is the middle of their latencies, and the median commit
/// an insert.
const RM_COMMITS: [(&str, bool); 10] = [
    ("R", true),
    ("R", true),
    ("R", false),
    ("B", true),
    ("B", false),
    ("B", true),
    ("B", false),
    ("S", true),
    ("S", true),
    ("S", false),
];

/// Catalog query shapes over intervals `R`, overlapping boxes `B` and a point
/// graph `S`, with one commit every eleven operations.
pub struct ReadMostly {
    rng: Rng,
    /// What the seed adds to every constant of `R` and `B`.
    offset: i64,
    r: Vec<(i64, i64)>,
    b: Vec<[i64; 4]>,
    s: BTreeSet<(i64, i64)>,
    step: usize,
    commits: usize,
    round: Vec<&'static str>,
    live: Vec<Part>,
}

impl ReadMostly {
    fn new(mut rng: Rng) -> Self {
        // Intervals and boxes sit on one jittered lattice, shifted by an
        // offset drawn from the seed.  Under the dense order only the order
        // of the constants matters, so every seed gives `R` and `B` the same
        // shape and the reads over them the same amount of work: with the
        // jitter drawn per seed, the `selfjoin` answer ranged over ±8 % in
        // parts and its latency over ±20 % between seeds.
        let offset = rng.range(0, RM_MAX_OFFSET);
        let mut shape = Rng::new(RM_SHAPE_SEED);
        let r = (0..10)
            .map(|k| {
                let lo = k * RM_BASE / 10 + shape.range(0, 1);
                (offset + lo, offset + (lo + shape.range(0, 3)).min(RM_BASE))
            })
            .collect();
        let mut b = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                // Boxes five apart and five or six wide: neighbours overlap
                // or touch, depending on the jitter.  The rows start at 3 and
                // the columns end near 22, so the two shadows differ and `R`
                // pokes out of the x shadow.
                let x0 = 5 * i + shape.range(0, 1);
                let y0 = 3 + 5 * j + shape.range(0, 1);
                b.push([
                    offset + x0,
                    offset + x0 + shape.range(5, 6),
                    offset + y0,
                    offset + (y0 + shape.range(5, 6)).min(RM_BASE),
                ]);
            }
        }
        // A circulant graph u -> u+a, u -> u+b (mod a prime) under a random
        // relabelling: every seed gets exactly three two-hop and four
        // three-hop successors per node.
        let a = shape.range(1, RM_NODES - 1);
        let b_step = loop {
            let c = shape.range(1, RM_NODES - 1);
            if c != a {
                break c;
            }
        };
        let mut label: Vec<i64> = (0..RM_NODES).collect();
        rng.shuffle(&mut label);
        let node = |u: i64| label[usize::try_from(u.rem_euclid(RM_NODES)).expect("node index")];
        let s = (0..RM_NODES)
            .flat_map(|u| [(node(u), node(u + a)), (node(u), node(u + b_step))])
            .collect();
        ReadMostly {
            rng,
            offset,
            r,
            b,
            s,
            step: 0,
            commits: 0,
            round: Vec::new(),
            live: Vec::new(),
        }
    }

    fn in_r(&self, h: i64) -> bool {
        self.r.iter().any(|&(lo, hi)| within(h, lo, hi))
    }

    fn shadow(&self, h: i64, axis: usize) -> bool {
        self.b
            .iter()
            .any(|b| within(h, b[2 * axis], b[2 * axis + 1]))
    }

    fn node(h: i64) -> Option<i64> {
        (h % 2 == 0).then_some(h / 2)
    }

    fn succ(&self, u: i64) -> impl Iterator<Item = i64> + '_ {
        self.s.range((u, i64::MIN)..=(u, i64::MAX)).map(|&(_, v)| v)
    }

    fn extra(&mut self, rel: &'static str) -> Part {
        let (lo, hi) = (self.offset + RM_EXTRA_LO, self.offset + RM_EXTRA_HI - 2);
        match rel {
            "R" => {
                let a = self.rng.range(lo, hi);
                Part::Interval(a, a + self.rng.range(0, 2))
            }
            "B" => {
                let (x0, y0) = (self.rng.range(lo, hi), self.rng.range(lo, hi));
                Part::Box(x0, x0 + self.rng.range(0, 2), y0, y0 + self.rng.range(0, 2))
            }
            _ => loop {
                let (u, v) = (
                    self.rng.range(0, RM_NODES - 1),
                    self.rng.range(0, RM_NODES - 1),
                );
                if u != v && !self.s.contains(&(u, v)) {
                    break Part::Point(u, v);
                }
            },
        }
    }

    fn apply(&mut self, part: Part, insert: bool) {
        match part {
            Part::Interval(lo, hi) if insert => self.r.push((lo, hi)),
            Part::Interval(lo, hi) => self.r.retain(|&p| p != (lo, hi)),
            Part::Box(x0, x1, y0, y1) if insert => self.b.push([x0, x1, y0, y1]),
            Part::Box(x0, x1, y0, y1) => self.b.retain(|&p| p != [x0, x1, y0, y1]),
            Part::Point(u, v) if insert => {
                self.s.insert((u, v));
            }
            Part::Point(u, v) => {
                self.s.remove(&(u, v));
            }
        }
    }
}

impl Workload for ReadMostly {
    fn script(&self) -> String {
        let mut out = String::from("theory dense;\nschema R/1, B/2, S/2;\n");
        let r: Vec<Part> = self
            .r
            .iter()
            .map(|&(lo, hi)| Part::Interval(lo, hi))
            .collect();
        let b: Vec<Part> = self
            .b
            .iter()
            .map(|b| Part::Box(b[0], b[1], b[2], b[3]))
            .collect();
        let s: Vec<Part> = self.s.iter().map(|&(u, v)| Part::Point(u, v)).collect();
        out += &relation_literal("R", 1, &r);
        out += &relation_literal("B", 2, &b);
        out += &relation_literal("S", 2, &s);
        out += "query gap(x) := (not R(x) and exists y. (R(y) and y < x)) \
                and exists z. (R(z) and x < z);\n\
                query shadow(x) := exists y. B(x, y);\n\
                query selfjoin(x, y) := exists z. (B(x, z) and B(z, y));\n\
                query twohop(x, z) := exists y. (S(x, y) and S(y, z));\n\
                query zigzag(x, w) := exists y, z. (S(x, y) and S(z, w) and S(y, z));\n\
                query iffshadow(x) := exists y. (B(x, y)) <-> exists y. (B(y, x));\n\
                query neg(x) := R(x) and not exists y. B(x, y);\n";
        out
    }

    fn reads(&self) -> &'static [&'static str] {
        &RM_QUERIES
    }

    fn next_op(&mut self) -> Op {
        let period = RM_READS_PER_COMMIT + 1;
        let (slot, half) = (self.step % period, self.step / period % 2);
        self.step += 1;
        if slot == 0 && half == 0 {
            self.round = RM_QUERIES
                .iter()
                .zip(RM_SHARES)
                .flat_map(|(&query, n)| std::iter::repeat_n(query, n))
                .collect();
            debug_assert_eq!(self.round.len(), RM_READS_PER_ROUND);
            self.rng.shuffle(&mut self.round);
        }
        if slot < RM_READS_PER_COMMIT {
            return Op::Read(self.round[half * RM_READS_PER_COMMIT + slot]);
        }
        let (rel, insert) = RM_COMMITS[self.commits % RM_COMMITS.len()];
        self.commits += 1;
        if !insert {
            let parts: Vec<Part> = std::mem::take(&mut self.live);
            for &part in &parts {
                self.apply(part, false);
            }
            return Op::Delete(rel, parts);
        }
        let part = self.extra(rel);
        self.live.push(part);
        self.apply(part, true);
        Op::Insert(rel, vec![part])
    }

    fn expect(&self, name: &str, h: &[i64]) -> bool {
        match name {
            "R" => self.in_r(h[0]),
            "B" => self
                .b
                .iter()
                .any(|b| within(h[0], b[0], b[1]) && within(h[1], b[2], b[3])),
            "S" => match (Self::node(h[0]), Self::node(h[1])) {
                (Some(u), Some(v)) => self.s.contains(&(u, v)),
                _ => false,
            },
            "gap" => {
                // The stored union of closed intervals has a point below x
                // iff some interval starts below it, and symmetrically above.
                !self.in_r(h[0])
                    && self.r.iter().any(|&(lo, _)| 2 * lo < h[0])
                    && self.r.iter().any(|&(_, hi)| 2 * hi > h[0])
            }
            "shadow" => self.shadow(h[0], 0),
            "iffshadow" => self.shadow(h[0], 0) == self.shadow(h[0], 1),
            "neg" => self.in_r(h[0]) && !self.shadow(h[0], 0),
            "selfjoin" => self.b.iter().any(|b1| {
                within(h[0], b1[0], b1[1])
                    && self
                        .b
                        .iter()
                        .any(|b2| within(h[1], b2[2], b2[3]) && meet(b1[2], b1[3], b2[0], b2[1]))
            }),
            "twohop" | "zigzag" => {
                let (Some(u), Some(w)) = (Self::node(h[0]), Self::node(h[1])) else {
                    return false;
                };
                let mut frontier: BTreeSet<i64> = BTreeSet::from([u]);
                let hops = if name == "twohop" { 2 } else { 3 };
                for _ in 0..hops {
                    frontier = frontier.iter().flat_map(|&v| self.succ(v)).collect();
                }
                frontier.contains(&w)
            }
            _ => panic!("read-mostly has no relation `{name}`"),
        }
    }

    fn grid(&self, name: &str) -> Grid {
        let line = (2 * self.offset - 1, 2 * (self.offset + RM_EXTRA_HI) + 1);
        let nodes = (-1, 2 * RM_NODES - 1);
        Grid(match name {
            "R" | "gap" | "shadow" | "iffshadow" | "neg" => vec![line],
            "B" | "selfjoin" => vec![line, line],
            "S" | "twohop" | "zigzag" => vec![nodes, nodes],
            _ => panic!("read-mostly has no relation `{name}`"),
        })
    }

    fn commit_checks(&self, op: &Op, rng: &mut Rng) -> Vec<(&'static str, Vec<Vec<i64>>)> {
        match op {
            Op::Insert(rel, _) | Op::Delete(rel, _) => {
                vec![(*rel, self.grid(rel).sample(CHECK_SAMPLE, rng))]
            }
            Op::Read(_) => Vec::new(),
        }
    }

    fn dependents(&self, _rel: &str) -> &'static [&'static str] {
        &[]
    }

    fn deletes_restore(&self) -> bool {
        true
    }

    fn cycle(&self) -> usize {
        // Two passes through the commits, so that a cycle holds twenty.
        2 * RM_COMMITS.len() * (RM_READS_PER_COMMIT + 1)
    }

    fn traced_ops(&self) -> usize {
        150
    }

    fn relations(&self) -> &'static [&'static str] {
        &["R", "B", "S"]
    }
}

/// Grid points checked per answer when the answer's grid is larger.
pub const CHECK_SAMPLE: usize = 512;

// ---------------------------------------------------------------------------
// write-mostly
// ---------------------------------------------------------------------------

/// `W` lives on a `WM_COLS × WM_ROWS` lattice of unit-box slots, slot
/// `(i, j)` being `[3i, 3i+1] × [3j, 3j+1]`; the setup fills half of them.
const WM_COLS: i64 = 24;
const WM_ROWS: i64 = 96;
/// The window `A = [0, WM_WINDOW]` covers the first slot column and the
/// gap after it, so `uncovered` is never empty.
const WM_WINDOW: i64 = 2;
/// `uncovered` looks only at the first `WM_LOW_ROWS` slot rows.
const WM_LOW_ROWS: i64 = 3;
/// Parts the setup inserts after the views exist, and the run later expires.
const WM_PREFILL: usize = 24;
/// Parts one delete commit expires: the oldest parts inserted since setup.
const WM_EXPIRE: usize = 3;
/// One round: three single-part inserts, one read, one delete of the three
/// oldest live inserts.  `W` keeps its size all run.
const WM_ROUND: [u8; 5] = [b'i', b'i', b'r', b'i', b'd'];

/// Single-part inserts and expiring deletes on a stored relation of about a
/// thousand boxes, with one view maintained incrementally and one recomputed.
///
/// Deletes expire parts inserted after setup, never the bulk-loaded ones: the
/// first maintained refresh puts every bulk-loaded part into one provenance
/// group, and a delete touching that group re-derives all of it (see
/// README.md).
pub struct WriteMostly {
    rng: Rng,
    full: Vec<bool>,
    anchor: (i64, i64),
    /// A bulk-loaded slot in the views' window, for the traced run's
    /// bulk-delete probe.
    bulk_probe: (i64, i64),
    live: std::collections::VecDeque<(i64, i64)>,
    step: usize,
    reads: usize,
}

impl WriteMostly {
    fn new(mut rng: Rng) -> Self {
        // Exactly half of every column's slots are full, so every seed
        // stores the same number of parts in the window.
        let rows = usize::try_from(WM_ROWS).expect("row count");
        let mut full = Vec::new();
        for _ in 0..WM_COLS {
            let mut column: Vec<bool> = (0..rows).map(|j| j < rows / 2).collect();
            rng.shuffle(&mut column);
            full.extend(column);
        }
        let first = (0..WM_ROWS)
            .find(|&j| full[Self::slot(0, j)])
            .expect("half of every column is full");
        let mut wm = WriteMostly {
            rng,
            full,
            anchor: (0, 0),
            bulk_probe: (0, first),
            live: std::collections::VecDeque::new(),
            step: 0,
            reads: 0,
        };
        wm.anchor = wm.fill_empty_slot();
        for _ in 0..WM_PREFILL {
            let slot = wm.fill_empty_slot();
            wm.live.push_back(slot);
        }
        wm
    }

    fn slot(i: i64, j: i64) -> usize {
        usize::try_from(i * WM_ROWS + j).expect("slot index")
    }

    fn slot_part((i, j): (i64, i64)) -> Part {
        Part::Box(3 * i, 3 * i + 1, 3 * j, 3 * j + 1)
    }

    fn fill_empty_slot(&mut self) -> (i64, i64) {
        loop {
            let (i, j) = (
                self.rng.range(0, WM_COLS - 1),
                self.rng.range(0, WM_ROWS - 1),
            );
            if !self.full[Self::slot(i, j)] {
                self.full[Self::slot(i, j)] = true;
                return (i, j);
            }
        }
    }

    /// The slot index along one axis a half-unit coordinate falls in.
    fn axis_slot(h: i64, count: i64) -> Option<i64> {
        (h >= 0 && h % 6 <= 2 && h / 6 < count).then_some(h / 6)
    }

    fn in_w(&self, h: &[i64]) -> bool {
        match (
            Self::axis_slot(h[0], WM_COLS),
            Self::axis_slot(h[1], WM_ROWS),
        ) {
            (Some(i), Some(j)) => self.full[Self::slot(i, j)],
            _ => false,
        }
    }

    /// Whether some low-row slot of the column at half-unit `h` is full.
    fn column_occupied(&self, h: i64) -> bool {
        Self::axis_slot(h, WM_COLS)
            .is_some_and(|i| (0..WM_LOW_ROWS).any(|j| self.full[Self::slot(i, j)]))
    }
}

impl Workload for WriteMostly {
    fn script(&self) -> String {
        let live: BTreeSet<(i64, i64)> = self.live.iter().copied().collect();
        let mut bulk = Vec::new();
        for i in 0..WM_COLS {
            for j in 0..WM_ROWS {
                if self.full[Self::slot(i, j)] && (i, j) != self.anchor && !live.contains(&(i, j)) {
                    bulk.push(Self::slot_part((i, j)));
                }
            }
        }
        let prefill: Vec<Part> = self.live.iter().map(|&s| Self::slot_part(s)).collect();
        let mut out = String::from("theory dense;\nschema W/2, A/1;\n");
        out += &relation_literal("W", 2, &bulk);
        // `uncovered` restates `A(x)` under the negation and bounds `y`, so
        // the projection reads only the window's lowest slots.
        let _ = write!(
            out,
            "A := {{(x) | 0 <= x and x <= {WM_WINDOW}}};\n\
             query watch(x, y) := W(x, y) and A(x);\n\
             query uncovered(x) := A(x) and not exists y. (W(x, y) and A(x) and y <= {});\n\
             run watch;\n\
             run uncovered;\n\
             query rwatch(x, y) := watch(x, y);\n\
             query runcovered(x) := uncovered(x);\n\
             query rcolumn(y) := exists x. watch(x, y);\n\
             insert W {{(x, y) | {}}};\n",
            3 * WM_LOW_ROWS - 1,
            Self::slot_part(self.anchor).literal()
        );
        out += &relation_literal("W", 2, &prefill).replacen("W :=", "insert W", 1);
        out
    }

    fn reads(&self) -> &'static [&'static str] {
        &["rwatch", "runcovered", "rcolumn"]
    }

    fn read_cycle(&self) -> &'static [&'static str] {
        // `runcovered` takes a few hundredths of a millisecond, `rwatch`
        // about half a millisecond with a long tail, the projection
        // `rcolumn` about two: with shares 1 : 3 : 1, the median read is the
        // middle of `rwatch`'s latencies and the 90th percentile the middle
        // of `rcolumn`'s, neither in a tail nor on a boundary.
        &["rwatch", "rcolumn", "rwatch", "runcovered", "rwatch"]
    }

    fn next_op(&mut self) -> Op {
        let kind = WM_ROUND[self.step % WM_ROUND.len()];
        self.step += 1;
        match kind {
            b'r' => {
                self.reads += 1;
                let cycle = self.read_cycle();
                Op::Read(cycle[self.reads % cycle.len()])
            }
            b'i' => {
                let slot = self.fill_empty_slot();
                self.live.push_back(slot);
                Op::Insert("W", vec![Self::slot_part(slot)])
            }
            _ => {
                let expired: Vec<(i64, i64)> = self.live.drain(..WM_EXPIRE).collect();
                for &(i, j) in &expired {
                    self.full[Self::slot(i, j)] = false;
                }
                Op::Delete("W", expired.into_iter().map(Self::slot_part).collect())
            }
        }
    }

    fn expect(&self, name: &str, h: &[i64]) -> bool {
        let in_window = |h: i64| (0..=2 * WM_WINDOW).contains(&h);
        match name {
            "W" => self.in_w(h),
            "watch" | "rwatch" => in_window(h[0]) && self.in_w(h),
            "uncovered" | "runcovered" => in_window(h[0]) && !self.column_occupied(h[0]),
            "rcolumn" => Self::axis_slot(h[0], WM_ROWS).is_some_and(|j| {
                (0..WM_COLS)
                    .filter(|&i| 3 * i <= WM_WINDOW)
                    .any(|i| self.full[Self::slot(i, j)])
            }),
            _ => panic!("write-mostly has no relation `{name}`"),
        }
    }

    fn grid(&self, name: &str) -> Grid {
        let window = (-1, 2 * WM_WINDOW + 1);
        let rows = (-1, 6 * WM_ROWS);
        Grid(match name {
            "W" => vec![(-1, 6 * WM_COLS), rows],
            "watch" | "rwatch" => vec![window, rows],
            "uncovered" | "runcovered" => vec![window],
            "rcolumn" => vec![rows],
            _ => panic!("write-mostly has no relation `{name}`"),
        })
    }

    fn commit_checks(&self, op: &Op, rng: &mut Rng) -> Vec<(&'static str, Vec<Vec<i64>>)> {
        let (Op::Insert(_, parts) | Op::Delete(_, parts)) = op else {
            return Vec::new();
        };
        // Each changed slot's centre and points around it, plus a few
        // anywhere, on the stored relation and the maintained view; the
        // recomputed view in full.
        let mut points = self.grid("W").sample(2, rng);
        for &part in parts {
            let Part::Box(x0, x1, y0, y1) = part else {
                unreachable!("write-mostly commits boxes")
            };
            points.push(vec![x0 + x1, y0 + y1]);
            let near = Grid(vec![(2 * x0 - 1, 2 * x1 + 1), (2 * y0 - 1, 2 * y1 + 1)]);
            points.extend(near.sample(3, rng));
        }
        let window: Vec<Vec<i64>> = points
            .iter()
            .filter(|p| p[0] <= 2 * WM_WINDOW + 1)
            .cloned()
            .collect();
        vec![
            ("W", points),
            ("watch", window),
            ("uncovered", self.grid("uncovered").points()),
        ]
    }

    fn dependents(&self, _rel: &str) -> &'static [&'static str] {
        &["watch", "uncovered"]
    }

    fn cycle(&self) -> usize {
        // The read cycle advances once per round.
        self.read_cycle().len() * WM_ROUND.len()
    }

    fn traced_ops(&self) -> usize {
        100
    }

    fn relations(&self) -> &'static [&'static str] {
        &["W", "watch", "uncovered"]
    }

    fn views(&self) -> &'static [&'static str] {
        &["watch", "uncovered"]
    }

    fn restore_probe(&self) -> Option<(&'static str, Part)> {
        // Past the last slot column, so disjoint from every slot.
        Some(("W", Part::Box(3 * WM_COLS, 3 * WM_COLS + 1, 0, 1)))
    }

    fn bulk_delete_probe(&self) -> Option<(&'static str, Part)> {
        Some(("W", Self::slot_part(self.bulk_probe)))
    }
}

// ---------------------------------------------------------------------------
// fixpoint-refresh
// ---------------------------------------------------------------------------

/// Edge slots: slot `k`'s edge has `x` in `[4k, 4k+3]` and `y` in
/// `[4k+4, 4k+7]`, so consecutive edges chain through overlapping intervals
/// while the stored boxes stay pairwise disjoint (a delete removes exactly
/// one edge).
const FR_SLOTS: usize = 8;
/// Each round deletes the edges `FR_FIRST` and `FR_SECOND` slots past the gap,
/// one commit each, then puts back the gap and the first of them in one
/// commit.  The gap walks by `FR_SECOND` (coprime to 8) through every slot,
/// so every run cycles through the same chain shapes; the seed sets the
/// edges' endpoints.  Two deletes per insert keep the median commit inside
/// the deletes' latencies and the 90th percentile inside the inserts'.
const FR_FIRST: usize = 3;
const FR_SECOND: usize = 5;
/// `reach` starts from edges whose `x` interval reaches down to this bound
/// (past the offset).
const FR_REACH_FROM: i64 = 2;
/// The largest offset a seed adds to every constant.
const FR_MAX_OFFSET: i64 = 40;
/// Seeds the endpoints of the edges loaded at setup, the same for every run
/// (see [`FixpointRefresh::new`]).
const FR_SHAPE_SEED: u64 = 8;
/// One round: three commits, each followed by a read.
const FR_ROUND: [u8; 6] = [b'd', b'r', b'e', b'r', b'i', b'r'];

/// An active transitive-closure program over a chain of interval edges with
/// one to three gaps, re-run inside every commit.
pub struct FixpointRefresh {
    rng: Rng,
    /// What the seed adds to every constant.
    offset: i64,
    edges: Vec<Option<[i64; 4]>>,
    gap: usize,
    step: usize,
    reads: usize,
}

impl FixpointRefresh {
    fn new(mut rng: Rng) -> Self {
        // The edges loaded at setup come from a fixed generator, shifted by an
        // offset drawn from the seed: the fixpoint's cost depends on the
        // chain's shape, only the order of the constants matters to it, and
        // setup runs it once, so with endpoints drawn per seed `setup_s`
        // moved with the seed.  Edges put back by commits come from the seed.
        let offset = rng.range(0, FR_MAX_OFFSET);
        let mut shape = Rng::new(FR_SHAPE_SEED);
        let mut edges = vec![None; FR_SLOTS];
        for (k, edge) in edges.iter_mut().enumerate() {
            if k != FR_SLOTS / 2 {
                *edge = Some(Self::random_edge(offset, k, &mut shape));
            }
        }
        FixpointRefresh {
            rng,
            offset,
            edges,
            gap: FR_SLOTS / 2,
            step: 0,
            reads: 0,
        }
    }

    fn random_edge(offset: i64, k: usize, rng: &mut Rng) -> [i64; 4] {
        let base = offset + 4 * i64::try_from(k).expect("slot fits i64");
        // x ends at 4k+2 or later and y starts at 4k+6 or earlier, so edge
        // k's y interval always meets edge k+1's x interval.
        [
            base,
            base + 2 + rng.range(0, 1),
            base + 4 + rng.range(0, 2),
            base + 7,
        ]
    }

    fn part(e: [i64; 4]) -> Part {
        Part::Box(e[0], e[1], e[2], e[3])
    }

    fn present(&self) -> impl Iterator<Item = [i64; 4]> + '_ {
        self.edges.iter().flatten().copied()
    }

    /// Whether the half-unit `y` is reachable along edges from any edge the
    /// start predicate accepts: interval-path propagation.
    fn reaches(&self, start: impl Fn(&[i64; 4]) -> bool, hy: i64) -> bool {
        let edges: Vec<[i64; 4]> = self.present().collect();
        let mut seen: Vec<bool> = edges.iter().map(&start).collect();
        let mut stack: Vec<usize> = (0..edges.len()).filter(|&i| seen[i]).collect();
        while let Some(i) = stack.pop() {
            if within(hy, edges[i][2], edges[i][3]) {
                return true;
            }
            for (j, f) in edges.iter().enumerate() {
                if !seen[j] && meet(edges[i][2], edges[i][3], f[0], f[1]) {
                    seen[j] = true;
                    stack.push(j);
                }
            }
        }
        false
    }
}

impl Workload for FixpointRefresh {
    fn script(&self) -> String {
        let parts: Vec<Part> = self.present().map(Self::part).collect();
        let mut out = String::from("theory dense;\nschema edge/2;\n");
        out += &relation_literal("edge", 2, &parts);
        let _ = write!(
            out,
            "program closure {{\n  tc(x, y) :- edge(x, y).\n  tc(x, y) :- tc(x, z), edge(z, y).\n}}\n\
             fixpoint closure;\n\
             query rtc(x, y) := tc(x, y);\n\
             query reach(y) := exists x. (tc(x, y) and x <= {});\n",
            self.offset + FR_REACH_FROM
        );
        out
    }

    fn reads(&self) -> &'static [&'static str] {
        &["rtc", "reach"]
    }

    fn read_cycle(&self) -> &'static [&'static str] {
        &["rtc", "reach", "reach"]
    }

    fn next_op(&mut self) -> Op {
        let kind = FR_ROUND[self.step % FR_ROUND.len()];
        self.step += 1;
        match kind {
            b'r' => {
                self.reads += 1;
                let cycle = self.read_cycle();
                Op::Read(cycle[self.reads % cycle.len()])
            }
            b'd' | b'e' => {
                let step = if kind == b'd' { FR_FIRST } else { FR_SECOND };
                let k = (self.gap + step) % FR_SLOTS;
                let e = self.edges[k].take().expect("only the gap is empty");
                Op::Delete("edge", vec![Self::part(e)])
            }
            _ => {
                let parts = [self.gap, (self.gap + FR_FIRST) % FR_SLOTS].map(|k| {
                    let e = Self::random_edge(self.offset, k, &mut self.rng);
                    self.edges[k] = Some(e);
                    Self::part(e)
                });
                self.gap = (self.gap + FR_SECOND) % FR_SLOTS;
                Op::Insert("edge", parts.to_vec())
            }
        }
    }

    fn expect(&self, name: &str, h: &[i64]) -> bool {
        match name {
            "edge" => self.present().any(|e| Self::part(e).contains(h)),
            "tc" | "rtc" => self.reaches(|e| within(h[0], e[0], e[1]), h[1]),
            "reach" => self.reaches(|e| e[0] <= self.offset + FR_REACH_FROM, h[0]),
            _ => panic!("fixpoint-refresh has no relation `{name}`"),
        }
    }

    fn grid(&self, name: &str) -> Grid {
        let slots = i64::try_from(FR_SLOTS).expect("slot count fits i64");
        let xs = (2 * self.offset - 1, 2 * self.offset + 8 * slots + 1);
        let ys = (2 * self.offset - 1, 2 * self.offset + 8 * slots + 15);
        Grid(match name {
            "edge" | "tc" | "rtc" => vec![xs, ys],
            "reach" => vec![ys],
            _ => panic!("fixpoint-refresh has no relation `{name}`"),
        })
    }

    fn commit_checks(&self, op: &Op, rng: &mut Rng) -> Vec<(&'static str, Vec<Vec<i64>>)> {
        match op {
            Op::Insert(..) | Op::Delete(..) => vec![
                ("edge", self.grid("edge").sample(CHECK_SAMPLE, rng)),
                ("tc", self.grid("tc").sample(CHECK_SAMPLE, rng)),
            ],
            Op::Read(_) => Vec::new(),
        }
    }

    fn dependents(&self, _rel: &str) -> &'static [&'static str] {
        &["tc"]
    }

    fn cycle(&self) -> usize {
        // The gap walks through every slot; each round reads all three of
        // the read cycle.
        FR_SLOTS * FR_ROUND.len()
    }

    fn traced_ops(&self) -> usize {
        40
    }

    fn relations(&self) -> &'static [&'static str] {
        &["edge", "tc"]
    }

    fn closure(&self) -> Option<(&'static str, &'static str)> {
        Some(("edge", "tc"))
    }
}

//! The counting theory: dense order with every kernel call tallied.
//!
//! [`Counted`] has `DenseOrder`'s atoms and contexts, and each `Theory`
//! method delegates to `DenseOrder` after bumping one counter.  The traced
//! run instantiates the engine at this theory, so kernel work is counted from
//! outside the engine without touching it.  The counters are process-wide
//! relaxed atomics: the benchmark runs the engine on one thread, so a
//! bracket around one engine call sees exactly that call's kernel work.

use frdb_core::dense::{DenseAtom, DenseOrder};
use frdb_core::logic::Var;
use frdb_core::theory::{Conj, Dnf, Theory};
use frdb_core::Rat;
use frdb_lang::{AtomSyntax, ParseError, Parser};
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};

/// Kernel entry points, in the order [`kernel_calls`] reports them.
pub const KERNEL_CALLS: [&str; 8] = [
    "contexts",
    "entails",
    "compatible",
    "eliminate",
    "canonical",
    "satisfiable",
    "bounds",
    "pinned",
];

const CONTEXTS: usize = 0;
const ENTAILS: usize = 1;
const COMPATIBLE: usize = 2;
const ELIMINATE: usize = 3;
const CANONICAL: usize = 4;
const SATISFIABLE: usize = 5;
const BOUNDS: usize = 6;
const PINNED: usize = 7;

static CALLS: [AtomicU64; 8] = [const { AtomicU64::new(0) }; 8];

fn bump(slot: usize) {
    CALLS[slot].fetch_add(1, Ordering::Relaxed);
}

/// The calls made so far, one count per entry of [`KERNEL_CALLS`].
pub fn kernel_calls() -> [u64; 8] {
    std::array::from_fn(|i| CALLS[i].load(Ordering::Relaxed))
}

/// Dense order with counted kernel calls.
pub struct Counted;

impl Theory for Counted {
    type A = DenseAtom;
    type Ctx = <DenseOrder as Theory>::Ctx;

    fn name() -> &'static str {
        "dense order (Q, ≤), counted"
    }

    fn context(conj: &[DenseAtom]) -> Self::Ctx {
        bump(CONTEXTS);
        DenseOrder::context(conj)
    }

    fn ctx_satisfiable(ctx: &Self::Ctx) -> bool {
        bump(SATISFIABLE);
        DenseOrder::ctx_satisfiable(ctx)
    }

    fn ctx_canonical(ctx: &Self::Ctx) -> Option<Conj<DenseAtom>> {
        bump(CANONICAL);
        DenseOrder::ctx_canonical(ctx)
    }

    fn ctx_eliminate(ctx: &Self::Ctx, var: &Var) -> Dnf<DenseAtom> {
        bump(ELIMINATE);
        DenseOrder::ctx_eliminate(ctx, var)
    }

    fn ctx_entails(ctx: &Self::Ctx, conclusion: &[DenseAtom]) -> bool {
        bump(ENTAILS);
        DenseOrder::ctx_entails(ctx, conclusion)
    }

    fn ctx_compatible(a: &Self::Ctx, b: &Self::Ctx) -> bool {
        bump(COMPATIBLE);
        DenseOrder::ctx_compatible(a, b)
    }

    fn ctx_pinned(ctx: &Self::Ctx, var: &Var) -> Option<Rat> {
        bump(PINNED);
        DenseOrder::ctx_pinned(ctx, var)
    }

    fn ctx_bounds(ctx: &Self::Ctx, var: &Var) -> Option<(Bound<Rat>, Bound<Rat>)> {
        bump(BOUNDS);
        DenseOrder::ctx_bounds(ctx, var)
    }
}

impl AtomSyntax for Counted {
    const THEORY_NAME: &'static str = DenseOrder::THEORY_NAME;

    fn parse_atom(p: &mut Parser<'_>) -> Result<DenseAtom, ParseError> {
        DenseOrder::parse_atom(p)
    }
}

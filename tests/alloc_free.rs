//! Allocation regression test for the per-pair hot path.
//!
//! This binary installs a counting global allocator, so it holds only
//! these tests. After a warm-up pass over a seeded pool (which grows every
//! buffer to the largest pair), a second pass counts the heap
//! allocations each call makes on the calling thread:
//!
//! * `Gediot::predict_in` may allocate only the coupling it returns: its
//!   autodiff tape draws every value buffer from the workspace's pool.
//! * `Gedgw::solve_in` may allocate only the coupling it returns: the
//!   LSAP oracle leaves its assignment, and conditional gradient its
//!   objective history, in the workspace.
//! * `Gedhot::predict_in` is the two members together.
//! * `branch_lower_bound_in` allocates nothing, and neither does the
//!   τ-bounded exact search (`bounded_exact_ged_with_budget_in`): its
//!   anchored bound, open list and state arena live in the workspace.
//!
//! A `realloc` counts as an allocation: a buffer that grows is a miss.

use ot_ged::core::gediot::GediotConfig;
use ot_ged::core::lower_bound::branch_lower_bound_in;
use ot_ged::core::search::bounded_exact_ged_with_budget_in;
use ot_ged::core::GedWorkspace;
use ot_ged::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations per warm `Gediot::predict_in`: the returned coupling.
const GEDIOT_MAX: u64 = 1;
/// Allocations per warm `Gedgw::solve_in`: the returned coupling.
const GEDGW_MAX: u64 = 1;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a const-initialized thread local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// AIDS-like pairs (4–10 nodes, 29 labels), as the batch benchmark draws.
fn pool() -> Vec<(Graph, Graph)> {
    let mut rng = SmallRng::seed_from_u64(0xA110C);
    let graphs: Vec<Graph> = GraphDataset::build(DatasetKind::Aids, 120, &mut rng)
        .store()
        .graphs()
        .cloned()
        .collect();
    graphs
        .chunks_exact(2)
        .map(|c| (c[0].clone(), c[1].clone()))
        .collect()
}

fn model(config: GediotConfig) -> Gediot {
    let mut rng = SmallRng::seed_from_u64(0xA110D);
    Gediot::new(config, &mut rng)
}

/// Runs `call` over the pool once to warm up, then returns each call's
/// allocation count in a second pass.
fn warm_calls(pairs: &[(Graph, Graph)], mut call: impl FnMut(&Graph, &Graph)) -> Vec<u64> {
    for (g1, g2) in pairs {
        call(g1, g2);
    }
    pairs
        .iter()
        .map(|(g1, g2)| allocations(|| call(g1, g2)).0)
        .collect()
}

/// Both the small and the paper's full-width configuration: the latter's
/// node-embedding MLP (concat width 253, hidden width 506) multiplies rows
/// several times longer than the matrix kernel's 64-entry stack chunk.
#[test]
fn warm_gediot_predict_in_allocates_only_the_coupling() {
    let pairs = pool();
    for (name, config) in [
        ("small", GediotConfig::small(29)),
        ("paper", GediotConfig::paper(29)),
    ] {
        let model = model(config);
        let mut ws = GedWorkspace::new();
        let counts = warm_calls(&pairs, |g1, g2| {
            let _ = model.predict_in(g1, g2, &mut ws);
        });
        for (i, &n) in counts.iter().enumerate() {
            assert!(
                n <= GEDIOT_MAX,
                "{name}, pair {i}: a warm Gediot::predict_in made {n} allocations (at most {GEDIOT_MAX})"
            );
        }
    }
}

#[test]
fn warm_gedgw_solve_in_allocations_stay_bounded() {
    let pairs = pool();
    let mut ws = GedWorkspace::new();
    let counts = warm_calls(&pairs, |g1, g2| {
        let _ = Gedgw::new(g1, g2).solve_in(&mut ws);
    });
    for (i, &n) in counts.iter().enumerate() {
        assert!(
            n <= GEDGW_MAX,
            "pair {i}: a warm Gedgw::solve_in made {n} allocations (at most {GEDGW_MAX})"
        );
    }
}

#[test]
fn warm_branch_bound_allocates_nothing() {
    let pairs = pool();
    let mut ws = GedWorkspace::new();
    let counts = warm_calls(&pairs, |g1, g2| {
        let _ = branch_lower_bound_in(g1, g2, &mut ws);
    });
    for (i, &n) in counts.iter().enumerate() {
        assert_eq!(n, 0, "pair {i}: a warm branch bound made {n} allocations");
    }
}

#[test]
fn warm_exact_search_allocates_nothing() {
    let pairs = pool();
    let mut ws = GedWorkspace::new();
    let counts = warm_calls(&pairs, |g1, g2| {
        for tau in [2, 4] {
            let _ = bounded_exact_ged_with_budget_in(g1, g2, tau, usize::MAX, &mut ws);
        }
    });
    for (i, &n) in counts.iter().enumerate() {
        assert_eq!(n, 0, "pair {i}: a warm exact search made {n} allocations");
    }
}

#[test]
fn warm_gedhot_predict_in_allocates_only_what_its_members_do() {
    let pairs = pool();
    let model = model(GediotConfig::small(29));
    let ens = Gedhot::new(&model);
    let mut ws = GedWorkspace::new();
    let counts = warm_calls(&pairs, |g1, g2| {
        let _ = ens.predict_in(g1, g2, &mut ws);
    });
    let bound = GEDIOT_MAX + GEDGW_MAX;
    for (i, &n) in counts.iter().enumerate() {
        assert!(
            n <= bound,
            "pair {i}: a warm Gedhot::predict_in made {n} allocations (at most {bound})"
        );
    }
}

/// The pool is the point: a fresh workspace per call allocates every
/// buffer again, so the bound above is not met by accident.
#[test]
fn a_cold_gediot_predict_allocates_its_tape() {
    let pairs = pool();
    let model = model(GediotConfig::small(29));
    let (g1, g2) = &pairs[0];
    let (cold, _) = allocations(|| model.predict(g1, g2));
    assert!(cold > 100, "a cold predict made only {cold} allocations");
}

/// Training runs every pair of an epoch on one tape pool and sums the
/// batch gradient in place. The pool's warm-up and each pair's
/// ground-truth coupling stay far below the 1,000-odd allocations a pair
/// made with a fresh tape per pair.
#[test]
fn train_epoch_reuses_one_tape_pool() {
    use ot_ged::core::pairs::GedPair;
    use ot_ged::graph::generate;
    const PER_PAIR: u64 = 32;
    let mut rng = SmallRng::seed_from_u64(0xA110E);
    let pairs: Vec<GedPair> = (0..40)
        .map(|i| {
            let g = generate::random_connected(5 + i % 5, 2, &[0.5, 0.5], &mut rng);
            let p = generate::perturb_with_edits(&g, 1 + i % 4, 2, &mut rng);
            GedPair::supervised(g, p.graph, p.applied as f64, p.mapping)
        })
        .collect();
    let mut model = Gediot::new(GediotConfig::small(2), &mut rng);
    model.train_epoch(&pairs, &mut rng);
    let (n, _) = allocations(|| model.train_epoch(&pairs, &mut rng));
    let bound = PER_PAIR * pairs.len() as u64;
    assert!(
        n <= bound,
        "an epoch of {} pairs made {n} allocations (at most {bound})",
        pairs.len()
    );
}

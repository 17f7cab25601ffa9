//! Differential tests of the condensation-based closure and modal sweeps.
//!
//! Seeded random relations (self-loops, nested cycles, long chains,
//! isolated nodes and scattered extra edges) at dimensions 1–300 are
//! closed on every backend and compared against a breadth-first-search
//! oracle written here; the lazy `[p*]`/`⟨p*⟩` sweeps are compared
//! against the materialized closure's one-step sweeps. A million-node
//! chain checks that no pass recurses, and zero-byte and cancelled
//! budgets check that every pass still stops with an error.

use std::collections::VecDeque;

use eclectic_kernel::{Budget, BudgetExceeded, CancelToken, LazyClosure, Rel, RelBackend, Rng};

const BACKENDS: [RelBackend; 3] = [
    RelBackend::Dense,
    RelBackend::Sparse,
    RelBackend::Compressed,
];

/// A random edge list over `0..n`: a few nested cycles, a few chains, a
/// sprinkle of self-loops and extra edges; nodes no step touches stay
/// isolated.
fn random_edges(rng: &mut Rng, n: usize) -> Vec<(usize, usize)> {
    let mut edges = Vec::new();
    // Nested cycles: a cycle over a random window, then a shorter cycle
    // inside it.
    for _ in 0..rng.range(0, 3) {
        let lo = rng.below(n);
        let hi = rng.range(lo, (lo + 40).min(n - 1));
        for a in lo..hi {
            edges.push((a, a + 1));
        }
        edges.push((hi, lo));
        let inner = rng.range(lo, hi);
        edges.push((inner, rng.range(lo, inner)));
    }
    // Long chains, possibly ending in one of the cycles.
    for _ in 0..rng.range(0, 3) {
        let lo = rng.below(n);
        let hi = rng.range(lo, n - 1);
        for a in lo..hi {
            edges.push((a, a + 1));
        }
    }
    for _ in 0..rng.range(0, 4) {
        let a = rng.below(n);
        edges.push((a, a));
    }
    for _ in 0..rng.below(n / 4 + 1) {
        edges.push((rng.below(n), rng.below(n)));
    }
    edges
}

fn build(n: usize, backend: RelBackend, edges: &[(usize, usize)]) -> Rel {
    let mut m = Rel::with_backend(n, backend);
    for &(a, b) in edges {
        m.set(a, b);
    }
    m
}

/// Reflexive-transitive closure rows by one breadth-first search per
/// source over plain adjacency lists.
fn bfs_closure(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<usize>> {
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in edges {
        adj[a].push(b);
    }
    (0..n)
        .map(|src| {
            let mut seen = vec![false; n];
            let mut queue = VecDeque::from([src]);
            seen[src] = true;
            while let Some(x) = queue.pop_front() {
                for &t in &adj[x] {
                    if !seen[t] {
                        seen[t] = true;
                        queue.push_back(t);
                    }
                }
            }
            (0..n).filter(|&t| seen[t]).collect()
        })
        .collect()
}

/// A random dimension in `1..=300` (small ones drawn often).
fn random_dim(rng: &mut Rng) -> usize {
    if rng.chance(1, 4) {
        rng.range(1, 8)
    } else {
        rng.range(1, 300)
    }
}

#[test]
fn closure_matches_bfs_oracle_on_random_relations() {
    let mut rng = Rng::new(0x5cc);
    for case in 0..120 {
        let n = random_dim(&mut rng);
        let edges = random_edges(&mut rng, n);
        let want = bfs_closure(n, &edges);
        for backend in BACKENDS {
            let closed = build(n, backend, &edges)
                .closure_governed(&Budget::unlimited(), 1)
                .unwrap();
            for (src, row) in want.iter().enumerate() {
                assert_eq!(
                    &closed.iter_row(src).collect::<Vec<_>>(),
                    row,
                    "case {case}, n {n}, src {src}, {backend:?}"
                );
            }
        }
    }
}

#[test]
fn compressed_closure_is_identical_at_every_worker_count() {
    let mut rng = Rng::new(0xc105e);
    for case in 0..40 {
        let n = random_dim(&mut rng);
        let base = build(n, RelBackend::Compressed, &random_edges(&mut rng, n));
        let serial = base.closure_governed(&Budget::unlimited(), 1).unwrap();
        let pairs: Vec<_> = serial.iter().collect();
        for threads in [2, 4, 8] {
            let again = base
                .closure_governed(&Budget::unlimited(), threads)
                .unwrap();
            assert_eq!(
                again.iter().collect::<Vec<_>>(),
                pairs,
                "case {case} at {threads}"
            );
            assert_eq!(
                again.mem_bytes(),
                serial.mem_bytes(),
                "case {case} at {threads}"
            );
        }
    }
}

#[test]
fn sweeps_match_materialized_closure_on_all_backends() {
    let mut rng = Rng::new(0x5eeb);
    for case in 0..120 {
        let n = random_dim(&mut rng);
        let edges = random_edges(&mut rng, n);
        // Sources restricted to a prefix of the universe: reached nodes
        // past it count as unsatisfied.
        let m = rng.range(0, n);
        let inners: Vec<Vec<bool>> = (0..3)
            .map(|_| {
                let density = rng.range(0, 4);
                (0..m).map(|_| rng.chance(density, 4)).collect()
            })
            .collect();
        for backend in BACKENDS {
            let base = build(n, backend, &edges);
            let closed = base.closure_reflexive_transitive(1);
            // One lazy closure answers every formula, box and diamond
            // interleaved, over one shared condensation.
            let mut lazy = LazyClosure::new(&base);
            for inner in &inners {
                assert_eq!(
                    lazy.box_star_states(inner, &Budget::unlimited()).unwrap(),
                    closed.box_states(inner),
                    "box: case {case}, n {n}, m {m}, {backend:?}"
                );
                assert_eq!(
                    lazy.diamond_star_states(inner, &Budget::unlimited())
                        .unwrap(),
                    closed.diamond_states(inner),
                    "diamond: case {case}, n {n}, m {m}, {backend:?}"
                );
            }
            assert_eq!(lazy.memoized_rows(), 0);
        }
    }
}

#[test]
fn million_node_chain_sweeps_without_recursion() {
    let n = 1 << 20;
    let mut chain = Rel::with_backend(n, RelBackend::Compressed);
    for a in 0..n - 1 {
        chain.set(a, a + 1);
    }
    // Only the chain's end satisfies: every node reaches it, and only the
    // end reaches nothing else.
    let mut inner = vec![false; n];
    inner[n - 1] = true;
    let mut lazy = LazyClosure::new(&chain);
    let boxed = lazy.box_star_states(&inner, &Budget::unlimited()).unwrap();
    assert_eq!(boxed.iter().filter(|&&b| b).count(), 1);
    assert!(boxed[n - 1]);
    let diamond = lazy
        .diamond_star_states(&inner, &Budget::unlimited())
        .unwrap();
    assert!(diamond.iter().all(|&d| d));
}

#[test]
fn zero_byte_and_cancelled_budgets_stop_closure_and_sweeps() {
    let mut rng = Rng::new(7);
    let n = 100;
    let edges = random_edges(&mut rng, n);
    let capped = Budget::unlimited().with_max_rel_entries(0);
    let cancelled = {
        let tok = CancelToken::new();
        tok.cancel();
        Budget::unlimited().with_cancel(tok)
    };
    let inner = vec![true; n];
    for backend in BACKENDS {
        let base = build(n, backend, &edges);
        for (budget, reason) in [
            (&capped, BudgetExceeded::RelMemory),
            (&cancelled, BudgetExceeded::Cancelled),
        ] {
            assert_eq!(
                base.closure_governed(budget, 1).err(),
                Some(reason),
                "closure on {backend:?}"
            );
            let mut lazy = LazyClosure::new(&base);
            assert_eq!(
                lazy.box_star_states(&inner, budget),
                Err(reason),
                "box on {backend:?}"
            );
            assert_eq!(
                lazy.diamond_star_states(&inner, budget),
                Err(reason),
                "diamond on {backend:?}"
            );
        }
    }
}

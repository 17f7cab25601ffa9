//! Reflexive-transitive closure by strongly connected components, and the
//! demand-driven closure layer between the relation backends and the
//! PDL/RPR semantics.
//!
//! Two reachability questions share one primitive, the
//! [`Condensation`] of a relation: an iterative Tarjan pass that groups
//! the nodes into strongly connected components (SCCs) and numbers the
//! components in the order Tarjan emits them, sinks first, so every edge
//! leads to a component with an equal or smaller number. Every node of
//! one SCC reaches exactly the same nodes, so any question about
//! `m(p*)` is answered once per component, by dynamic programming over
//! that order:
//!
//! - the compressed backend's closure (`CompressedRel::closure_governed`)
//!   builds each component's row once, from its members and the rows of
//!   its successor components, and copies it to every member;
//! - a [`LazyClosure`] answers the modal sweeps
//!   [`box_star_states`](LazyClosure::box_star_states) (`[p*]φ`) and
//!   [`diamond_star_states`](LazyClosure::diamond_star_states) (`⟨p*⟩φ`)
//!   without materializing any row: a component is box-true iff every
//!   member satisfies `φ` and every successor component is box-true, and
//!   diamond-true iff some member satisfies `φ` or some successor
//!   component is diamond-true. One condensation, built by the first
//!   sweep, serves every later sweep over the same closure, and each
//!   sweep costs O(V + E).
//!
//! A [`LazyClosure`] also answers *which rows does this source reach*
//! ([`row`](LazyClosure::row): one breadth-first search on first demand,
//! memoized, 4 bytes per entry charged against the budget's
//! relation-memory axis) and materializes the full closure
//! ([`materialize_governed`](LazyClosure::materialize_governed)). With an
//! empty memo that delegates to the backend's `closure_governed`
//! (bit-identical to the eager path at every worker count); with
//! memoized rows it merges them in serial row order, so reports stay
//! deterministic. The per-source memo and its traversal scratch are
//! allocated only when a row is demanded; the sweeps never touch them.
//!
//! Every pass here is iterative (no recursion, so a million-node chain
//! cannot overflow the stack) and polls its budget at least every
//! [`ROW_POLL_STRIDE`] traversal steps, swept nodes or output rows.

use crate::bitmat::ROW_POLL_STRIDE;
use crate::budget::{Budget, BudgetExceeded};
use crate::rel::Rel;

/// Polls a budget once every [`ROW_POLL_STRIDE`] ticks, the first tick
/// included; a tick is one traversal step, swept node or output row.
pub(crate) struct Poller<'b> {
    budget: &'b Budget,
    ticks: usize,
}

impl<'b> Poller<'b> {
    pub(crate) fn new(budget: &'b Budget) -> Self {
        Poller { budget, ticks: 0 }
    }

    /// Counts one tick; on a polling tick, checks the timing axes and the
    /// relation-memory axis against `bytes` materialized so far.
    pub(crate) fn tick(&mut self, bytes: usize) -> Result<(), BudgetExceeded> {
        let due = self.ticks.is_multiple_of(ROW_POLL_STRIDE);
        self.ticks += 1;
        match due.then(|| self.budget.check_rel(bytes)).flatten() {
            Some(reason) => Err(reason),
            None => Ok(()),
        }
    }
}

/// A directed graph over `0..nodes()` whose successors can be sought in
/// ascending order — what the SCC pass walks.
pub(crate) trait Successors {
    /// Number of nodes.
    fn nodes(&self) -> usize;
    /// The least successor of `v` that is `>= from`, if any.
    fn succ_from(&self, v: usize, from: usize) -> Option<usize>;
}

impl Successors for Rel {
    fn nodes(&self) -> usize {
        self.dim()
    }

    fn succ_from(&self, v: usize, from: usize) -> Option<usize> {
        match self {
            Rel::Dense(m) => first_set_from(m.row(v), from),
            Rel::Sparse(m) => {
                let row = m.row(v);
                row.get(row.partition_point(|&c| (c as usize) < from))
                    .map(|&c| c as usize)
            }
            Rel::Compressed(m) => m.succ_from(v, from),
        }
    }
}

/// The least set bit `>= from` of a bit row stored in `u64` words.
pub(crate) fn first_set_from(words: &[u64], from: usize) -> Option<usize> {
    let mut k = from >> 6;
    let mut word = words.get(k)? & (!0u64 << (from & 63));
    while word == 0 {
        k += 1;
        word = *words.get(k)?;
    }
    Some((k << 6) + word.trailing_zeros() as usize)
}

/// Marks an unvisited node or a node whose component is still open.
const UNSET: u32 = u32::MAX;

/// The strongly connected components of a graph, numbered sinks first:
/// every edge `u → v` has `comp(v) <= comp(u)`.
pub(crate) struct Condensation {
    /// Component of each node.
    comp: Vec<u32>,
    /// Nodes grouped by component, ascending within each component.
    members: Vec<u32>,
    /// Component `c`'s members are `members[start[c]..start[c + 1]]`.
    start: Vec<u32>,
}

impl Condensation {
    /// Condenses `g` by one iterative Tarjan pass (roots in ascending
    /// order), ticking `poll` with `bytes` once per traversal step (one
    /// successor sought), so even a deep descent is polled.
    ///
    /// # Errors
    /// Returns the tripped budget axis.
    ///
    /// # Panics
    /// Panics if `g` has `u32::MAX` nodes or more.
    pub(crate) fn new<G: Successors + ?Sized>(
        g: &G,
        poll: &mut Poller<'_>,
        bytes: usize,
    ) -> Result<Self, BudgetExceeded> {
        let n = g.nodes();
        assert!(n < UNSET as usize, "graph exceeds u32 node space");
        // Discovery index and low-link of each visited node; a visited
        // node whose `comp` is still UNSET is on the Tarjan stack.
        let mut index = vec![UNSET; n];
        let mut low = vec![0u32; n];
        let mut comp = vec![UNSET; n];
        let mut members = Vec::with_capacity(n);
        let mut start = vec![0u32];
        let mut stack: Vec<u32> = Vec::new();
        // The explicit call stack: (node, next successor column to seek).
        // `t + 1` fits: nodes are below `u32::MAX`.
        let mut frames: Vec<(u32, u32)> = Vec::new();
        let mut next_index = 0u32;
        for root in 0..n {
            if index[root] != UNSET {
                continue;
            }
            let mut enter = Some(root);
            loop {
                if let Some(v) = enter.take() {
                    index[v] = next_index;
                    low[v] = next_index;
                    next_index += 1;
                    stack.push(v as u32);
                    frames.push((v as u32, 0));
                }
                let Some(&(v, from)) = frames.last() else {
                    break;
                };
                poll.tick(bytes)?;
                let v = v as usize;
                if let Some(t) = g.succ_from(v, from as usize) {
                    frames.last_mut().expect("frame").1 = t as u32 + 1;
                    if index[t] == UNSET {
                        enter = Some(t);
                    } else if comp[t] == UNSET {
                        low[v] = low[v].min(index[t]);
                    }
                    continue;
                }
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    let p = parent as usize;
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    let c = (start.len() - 1) as u32;
                    let first = members.len();
                    loop {
                        let w = stack.pop().expect("v is on the stack");
                        comp[w as usize] = c;
                        members.push(w);
                        if w as usize == v {
                            break;
                        }
                    }
                    members[first..].sort_unstable();
                    start.push(members.len() as u32);
                }
            }
        }
        Ok(Condensation {
            comp,
            members,
            start,
        })
    }

    /// Number of components.
    pub(crate) fn components(&self) -> usize {
        self.start.len() - 1
    }

    /// The component of node `v`.
    pub(crate) fn comp(&self, v: usize) -> usize {
        self.comp[v] as usize
    }

    /// The nodes of component `c`, ascending.
    pub(crate) fn members(&self, c: usize) -> &[u32] {
        &self.members[self.start[c] as usize..self.start[c + 1] as usize]
    }
}

/// A demand-driven view of `base*` (the reflexive-transitive closure of
/// a borrowed base relation): memoized per-source rows and modal sweeps
/// over one shared condensation.
pub struct LazyClosure<'a> {
    base: &'a Rel,
    /// Memoized closure rows, indexed by source; `None` = not demanded.
    /// Empty until the first [`row`](Self::row) demand.
    memo: Vec<Option<Box<[u32]>>>,
    /// Number of memoized rows.
    filled: usize,
    /// Raw bytes held by the memo (4 per entry), charged to the
    /// relation-memory budget axis.
    bytes: usize,
    /// Reusable membership scratch for row traversals, `base.dim()`
    /// flags once a row is demanded.
    scratch: Vec<bool>,
    /// The base relation's condensation, built by the first sweep.
    cond: Option<Condensation>,
}

impl<'a> LazyClosure<'a> {
    /// A lazy closure over `base` with nothing demanded yet.
    #[must_use]
    pub fn new(base: &'a Rel) -> Self {
        LazyClosure {
            base,
            memo: Vec::new(),
            filled: 0,
            bytes: 0,
            scratch: Vec::new(),
            cond: None,
        }
    }

    /// The borrowed base relation.
    #[must_use]
    pub fn base(&self) -> &Rel {
        self.base
    }

    /// Number of source rows whose closure has been memoized.
    #[must_use]
    pub fn memoized_rows(&self) -> usize {
        self.filled
    }

    /// Raw bytes held by the per-source memo (4 per reached entry).
    #[must_use]
    pub fn memo_bytes(&self) -> usize {
        self.bytes
    }

    /// The sorted closure row of `src`: every node reachable from `src`
    /// in the base relation, including `src` itself. Computed by one
    /// breadth-first search on first demand, memoized after.
    ///
    /// # Errors
    /// Returns the tripped axis; the memo keeps previously demanded rows.
    ///
    /// # Panics
    /// Panics if `src` is out of range.
    pub fn row(&mut self, src: usize, budget: &Budget) -> Result<&[u32], BudgetExceeded> {
        let d = self.base.dim();
        assert!(src < d, "closure source out of range");
        if self.memo.is_empty() {
            self.memo = (0..d).map(|_| None).collect();
            self.scratch = vec![false; d];
        }
        if self.memo[src].is_none() {
            if let Some(reason) = budget.check_rel(self.bytes) {
                return Err(reason);
            }
            let mut reach: Vec<u32> = vec![src as u32];
            self.scratch[src] = true;
            let mut next = 0usize;
            while next < reach.len() {
                let x = reach[next] as usize;
                next += 1;
                for t in self.base.iter_row(x) {
                    if !self.scratch[t] {
                        self.scratch[t] = true;
                        reach.push(t as u32);
                    }
                }
            }
            for &t in &reach {
                self.scratch[t as usize] = false;
            }
            reach.sort_unstable();
            self.bytes += 4 * reach.len();
            self.filled += 1;
            self.memo[src] = Some(reach.into_boxed_slice());
        }
        Ok(self.memo[src].as_deref().expect("just filled"))
    }

    /// The closure as a full [`Rel`] at the base dimension, with rows
    /// `>= n` cleared (the `star_governed(n)` contract: sources are
    /// restricted to the universe, but traversal still passes through
    /// out-of-universe intermediate nodes).
    ///
    /// With an empty memo this delegates to the backend's
    /// `closure_governed` — the eager fast path, bit-identical at every
    /// worker count. With memoized rows it merges per-source rows in
    /// serial row order (demanding the missing ones), so the result is
    /// identical either way.
    ///
    /// # Errors
    /// Returns the tripped axis; partial output is discarded.
    ///
    /// # Panics
    /// Panics if `n` exceeds the base dimension.
    pub fn materialize_governed(
        &mut self,
        n: usize,
        budget: &Budget,
        threads: usize,
    ) -> Result<Rel, BudgetExceeded> {
        let d = self.base.dim();
        assert!(n <= d, "materialize bound exceeds base dimension");
        if self.filled == 0 {
            let mut closed = self.base.closure_governed(budget, threads)?;
            for r in n..d {
                closed.clear_row(r);
            }
            return Ok(closed);
        }
        let mut out = Rel::new(d);
        for src in 0..n {
            if src % ROW_POLL_STRIDE == 0 {
                if let Some(reason) = budget.check_rel(self.bytes) {
                    return Err(reason);
                }
            }
            for &c in self.row(src, budget)? {
                out.set(src, c as usize);
            }
        }
        Ok(out)
    }

    /// One `[p*]`-modality sweep over the closure without materializing
    /// it: `out[i]` is true iff every node reachable from `i` (including
    /// `i`) lies in `inner`; reached nodes `>= inner.len()` count as
    /// unsatisfied — exactly `closure.box_states(inner)` after a
    /// `star_governed(inner.len())`.
    ///
    /// # Errors
    /// Returns the tripped axis; partial verdicts are discarded.
    ///
    /// # Panics
    /// Panics if `inner` is longer than the base dimension.
    pub fn box_star_states(
        &mut self,
        inner: &[bool],
        budget: &Budget,
    ) -> Result<Vec<bool>, BudgetExceeded> {
        self.sweep(inner, budget, true)
    }

    /// One `⟨p*⟩`-modality sweep over the closure without materializing
    /// it: `out[i]` is true iff some node reachable from `i` (including
    /// `i`) lies in `inner` — exactly `closure.diamond_states(inner)`
    /// after a `star_governed(inner.len())`.
    ///
    /// # Errors
    /// Returns the tripped axis; partial verdicts are discarded.
    ///
    /// # Panics
    /// Panics if `inner` is longer than the base dimension.
    pub fn diamond_star_states(
        &mut self,
        inner: &[bool],
        budget: &Budget,
    ) -> Result<Vec<bool>, BudgetExceeded> {
        self.sweep(inner, budget, false)
    }

    /// Shared sweep: one pass over the components, sinks first. A box
    /// verdict starts true and turns false on an unsatisfied member or a
    /// box-false successor; a diamond verdict starts false and turns
    /// true on a satisfied member or a diamond-true successor.
    fn sweep(
        &mut self,
        inner: &[bool],
        budget: &Budget,
        is_box: bool,
    ) -> Result<Vec<bool>, BudgetExceeded> {
        assert!(
            inner.len() <= self.base.dim(),
            "sweep sources exceed base dimension"
        );
        let mut poll = Poller::new(budget);
        if self.cond.is_none() {
            self.cond = Some(Condensation::new(self.base, &mut poll, self.bytes)?);
        }
        let cond = self.cond.as_ref().expect("just built");
        let sat = |t: usize| t < inner.len() && inner[t];
        let mut holds = vec![false; cond.components()];
        for c in 0..cond.components() {
            let mut verdict = is_box;
            'members: for &m in cond.members(c) {
                poll.tick(self.bytes)?;
                let m = m as usize;
                if sat(m) != is_box {
                    verdict = !is_box;
                    break;
                }
                for t in self.base.iter_row(m) {
                    let e = cond.comp(t);
                    if e != c && holds[e] != is_box {
                        verdict = !is_box;
                        break 'members;
                    }
                }
            }
            holds[c] = verdict;
        }
        Ok((0..inner.len()).map(|i| holds[cond.comp(i)]).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rel::{force_rel_backend, Rel, RelBackend, RelChoice};

    fn from_pairs(n: usize, backend: RelBackend, pairs: &[(usize, usize)]) -> Rel {
        let mut m = Rel::with_backend(n, backend);
        for &(a, b) in pairs {
            m.set(a, b);
        }
        m
    }

    #[test]
    fn condensation_numbers_components_sinks_first() {
        // 0 ⇄ 1 → 2 → 3 ⇄ 4, plus 5 isolated with a self-loop.
        let pairs = [(0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 3), (5, 5)];
        for backend in [
            RelBackend::Dense,
            RelBackend::Sparse,
            RelBackend::Compressed,
        ] {
            let g = from_pairs(6, backend, &pairs);
            let budget = Budget::unlimited();
            let cond = Condensation::new(&g, &mut Poller::new(&budget), 0).unwrap();
            assert_eq!(cond.components(), 4, "{backend:?}");
            assert_eq!(cond.comp(0), cond.comp(1));
            assert_eq!(cond.comp(3), cond.comp(4));
            assert_eq!(cond.members(cond.comp(1)), &[0, 1]);
            for (a, b) in g.iter() {
                assert!(cond.comp(b) <= cond.comp(a), "edge {a}->{b} on {backend:?}");
            }
        }
    }

    #[test]
    fn rows_match_eager_closure_on_demand() {
        let pairs = [(0, 1), (1, 2), (2, 0), (5, 9), (9, 9)];
        for backend in [RelBackend::Dense, RelBackend::Sparse, RelBackend::Compressed] {
            let base = from_pairs(10, backend, &pairs);
            let eager = base.closure_reflexive_transitive(1);
            let mut lazy = LazyClosure::new(&base);
            // Demand out of order; memoization must not disturb results.
            for src in [5usize, 0, 5, 9, 3] {
                let row = lazy.row(src, &Budget::unlimited()).unwrap().to_vec();
                let want: Vec<u32> = eager.iter_row(src).map(|c| c as u32).collect();
                assert_eq!(row, want, "src {src} on {backend:?}");
            }
            assert_eq!(lazy.memoized_rows(), 4);
            assert!(lazy.memo_bytes() > 0);
        }
    }

    #[test]
    fn materialize_matches_star_contract_both_paths() {
        let _g = force_rel_backend(RelChoice::AutoAt(64));
        // Base dim 12 > n = 10: rows >= n must be cleared, but traversal
        // still passes through node 10 (5 -> 10 -> 6).
        let pairs = [(0, 1), (1, 2), (5, 10), (10, 6), (11, 3)];
        let base = from_pairs(12, RelBackend::Sparse, &pairs);
        let mut eager = base.closure_reflexive_transitive(1);
        for r in 10..12 {
            eager.clear_row(r);
        }
        // Fast path: empty memo.
        let mut lazy = LazyClosure::new(&base);
        let fast = lazy
            .materialize_governed(10, &Budget::unlimited(), 1)
            .unwrap();
        assert!(fast.set_eq(&eager));
        // Memoized path: pre-demand a row, then materialize serially.
        let mut lazy2 = LazyClosure::new(&base);
        lazy2.row(5, &Budget::unlimited()).unwrap();
        let merged = lazy2
            .materialize_governed(10, &Budget::unlimited(), 1)
            .unwrap();
        assert!(merged.set_eq(&eager));
        // A zero-byte relation-memory cap trips the memoized path too.
        let capped = Budget::unlimited().with_max_rel_entries(0);
        assert_eq!(
            lazy2.materialize_governed(10, &capped, 1).err(),
            Some(BudgetExceeded::RelMemory)
        );
    }

    #[test]
    fn modal_sweeps_match_materialized_closure() {
        let pairs = [
            (0, 1),
            (1, 2),
            (2, 0),
            (3, 4),
            (4, 11),
            (5, 5),
            (7, 8),
            (8, 9),
        ];
        for backend in [RelBackend::Dense, RelBackend::Sparse, RelBackend::Compressed] {
            let base = from_pairs(12, backend, &pairs);
            let n = 10usize;
            let mut closed = base.closure_reflexive_transitive(1);
            for r in n..12 {
                closed.clear_row(r);
            }
            // Several formulas over the same closure share one
            // condensation; each must still match the eager sweep.
            let inners = [
                vec![true; n],
                vec![false; n],
                (0..n).map(|i| i != 9).collect::<Vec<_>>(),
                (0..n).map(|i| i % 2 == 0).collect::<Vec<_>>(),
            ];
            let mut lazy = LazyClosure::new(&base);
            for inner in &inners {
                assert_eq!(
                    lazy.box_star_states(inner, &Budget::unlimited()).unwrap(),
                    closed.box_states(inner),
                    "box {inner:?} on {backend:?}"
                );
                assert_eq!(
                    lazy.diamond_star_states(inner, &Budget::unlimited())
                        .unwrap(),
                    closed.diamond_states(inner),
                    "diamond {inner:?} on {backend:?}"
                );
            }
            // Sweeps never materialized anything, nor allocated the memo.
            assert_eq!(lazy.memoized_rows(), 0);
            assert!(lazy.memo.is_empty() && lazy.scratch.is_empty());
        }
    }

    #[test]
    fn sweeps_respect_budget_axes() {
        let base = from_pairs(8, RelBackend::Sparse, &[(0, 1)]);
        let mut lazy = LazyClosure::new(&base);
        let cancelled = {
            let tok = crate::budget::CancelToken::new();
            tok.cancel();
            Budget::unlimited().with_cancel(tok)
        };
        assert_eq!(
            lazy.box_star_states(&[true; 8], &cancelled),
            Err(BudgetExceeded::Cancelled)
        );
        assert_eq!(
            lazy.diamond_star_states(&[false; 8], &cancelled),
            Err(BudgetExceeded::Cancelled)
        );
        assert_eq!(lazy.row(0, &cancelled), Err(BudgetExceeded::Cancelled));
    }
}

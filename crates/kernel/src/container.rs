//! Compressed chunk-container rows — the million-state backend for binary
//! relations over finite universes.
//!
//! A [`CompressedRel`] stores an `n × n` boolean matrix as one
//! [`CompressedRow`] per row; each row splits its column set into
//! 2¹⁶-aligned chunks (Roaring-style), and every chunk is held by the
//! smallest of three encodings:
//!
//! - **Array** — a sorted `u16` list, 2 bytes per entry; best below ~4k
//!   entries per chunk.
//! - **Bitmap** — 1024 × `u64` words (8192 bytes flat); best for dense,
//!   scattered chunks where the array would exceed 4096 entries.
//! - **Runs** — sorted, coalesced `(start, last)` intervals, 4 bytes per
//!   run; best for the contiguous blocks that reflexive-transitive
//!   closures of chain/ring-shaped transition relations produce (a
//!   fully-reachable block of any size is a single 4-byte run).
//!
//! Bulk-built rows (compose, closure, [`CompressedRow::from_sorted`],
//! union, meet) are *normalized*: the encoding is re-chosen per chunk by
//! byte size, preferring the array on ties. Point inserts ([`set`]) keep
//! the current encoding and only promote array→bitmap past 4096 entries
//! and runs→bitmap past 2048 runs, exactly like Roaring — a row built by
//! scattered `set` calls may therefore be larger than its normalized
//! form, but never asymptotically so.
//!
//! # Row layout
//!
//! Every row is one fixed-size slot ([`ROW_SLOT`] bytes). A row whose only
//! chunk is an array of at most [`INLINE_VALS`] values or a run list of at
//! most [`INLINE_RUNS`] runs lives inside its slot, with no heap
//! allocation — every row of a block-ring relation and of its closure
//! does. Any other row holds a boxed slice of `(chunk key, container)`
//! pairs, and every container caches its cardinality, so row and relation
//! counts are sums over chunks, not entries.
//!
//! # Byte accounting
//!
//! [`CompressedRel::byte_size`] is what the relation holds: `n` row slots
//! plus, for heap rows, the chunk slice and each container's payload at
//! its allocated capacity (2 bytes per array slot, 8192 per bitmap, 4 per
//! run slot). Allocator rounding aside, that is the memory the process
//! spends, so the relation-memory budget governs real bytes.
//!
//! # Iteration order
//!
//! Chunks are kept sorted by chunk key and every container iterates its
//! values ascending, so [`CompressedRel::iter`] and
//! [`CompressedRel::iter_row`] stream pairs in exactly the ascending
//! lexicographic `(r, c)` order a `BTreeSet<(usize, usize)>` would
//! produce — the same contract the dense and sparse backends uphold.
//!
//! # Closure, parallelism and budgets
//!
//! The closure condenses the relation into strongly connected components
//! ([`crate::closure`]) and builds each component's row once — its
//! members plus the rows of its successor components, run-merged and
//! normalized — then copies it to every member. That pass is serial, so
//! its output is identical at every worker count. `compose` fans output
//! rows across [`effective_workers`] in contiguous chunks, exactly like
//! the other kernels; each output row depends only on the inputs, so
//! results are bit-identical at every worker count. Both `*_governed`
//! variants poll a [`Budget`] at least every [`ROW_POLL_STRIDE`] rows or
//! traversal steps through [`Budget::check_rel`], passing the bytes the
//! output holds so far, so a runaway closure trips `RelMemory` instead of
//! OOMing.
//!
//! [`set`]: CompressedRel::set

use std::mem::size_of;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::bitmat::{row_task_chunk, ROW_POLL_STRIDE};
use crate::budget::{Budget, BudgetExceeded};
use crate::closure::{first_set_from, Condensation, Poller, Successors};
use crate::envcfg::{effective_workers, par_min_dim};

/// Columns per chunk: each container covers one 2¹⁶-aligned column range.
const CHUNK_SPAN: usize = 1 << 16;

/// Words in a bitmap container (`CHUNK_SPAN / 64`).
const BITMAP_WORDS: usize = CHUNK_SPAN / 64;

/// Flat byte size of a bitmap container's payload.
const BITMAP_BYTES: usize = BITMAP_WORDS * 8;

/// Array containers promote to bitmaps past this cardinality — at 4096
/// entries the array's `2 · len` bytes reach the bitmap's flat 8192.
const ARRAY_MAX: usize = BITMAP_BYTES / 2;

/// Run containers promote to bitmaps past this run count — at 2048 runs
/// the run list's `4 · runs` bytes reach the bitmap's flat 8192.
const RUNS_MAX: usize = BITMAP_BYTES / 4;

/// Most values a one-chunk array row holds inside its slot.
const INLINE_VALS: usize = 8;

/// Most runs a one-chunk run row holds inside its slot.
const INLINE_RUNS: usize = 4;

/// Bytes of one row slot.
pub(crate) const ROW_SLOT: usize = size_of::<CompressedRow>();

// A million-row relation must cost tens of MiB, not hundreds.
const _: () = assert!(ROW_SLOT <= 32, "row slot exceeds 32 bytes");

/// Bytes of one `(chunk key, container)` entry of a heap row.
pub(crate) const CHUNK_SLOT: usize = size_of::<(u32, Container)>();

/// One heap-held 2¹⁶-column chunk of a row, in whichever encoding is
/// smallest.
#[derive(Debug, Clone)]
enum Container {
    /// Sorted, deduplicated values (2 bytes each).
    Array(Vec<u16>),
    /// Flat bitmap (8192 bytes) with a cached popcount.
    Bitmap {
        /// 1024 words covering the chunk's 65536 columns.
        words: Box<[u64; BITMAP_WORDS]>,
        /// Cached number of set bits.
        len: u32,
    },
    /// Sorted, coalesced inclusive `(start, last)` intervals (4 bytes
    /// each) with a cached cardinality.
    Runs {
        /// Disjoint, non-adjacent, ascending intervals.
        runs: Vec<(u16, u16)>,
        /// Cached total cardinality across all runs.
        len: u32,
    },
}

impl Container {
    /// A borrowed view of the chunk.
    fn view(&self) -> View<'_> {
        match self {
            Container::Array(vals) => View::Array(vals),
            Container::Bitmap { words, len } => View::Bitmap(words, *len),
            Container::Runs { runs, len } => View::Runs(runs, *len),
        }
    }

    /// Heap bytes of the payload, at allocated capacity.
    fn heap_bytes(&self) -> usize {
        match self {
            Container::Array(vals) => 2 * vals.capacity(),
            Container::Bitmap { .. } => BITMAP_BYTES,
            Container::Runs { runs, .. } => 4 * runs.capacity(),
        }
    }

    /// Inserts `v`; returns whether it was previously absent. Promotes
    /// array→bitmap past [`ARRAY_MAX`] entries and runs→bitmap past
    /// [`RUNS_MAX`] runs; never demotes (normalization happens on
    /// bulk-built rows).
    fn insert(&mut self, v: u16) -> bool {
        match self {
            Container::Array(vals) => match vals.binary_search(&v) {
                Ok(_) => false,
                Err(pos) => {
                    vals.insert(pos, v);
                    if vals.len() > ARRAY_MAX {
                        *self = bitmap_from_sorted(vals);
                    }
                    true
                }
            },
            Container::Bitmap { words, len } => {
                let w = &mut words[usize::from(v) >> 6];
                let bit = 1u64 << (v & 63);
                if *w & bit != 0 {
                    return false;
                }
                *w |= bit;
                *len += 1;
                true
            }
            Container::Runs { runs, len } => {
                // Locate the insertion point; u32 arithmetic avoids u16
                // overflow when coalescing against a run ending at 65535.
                let v32 = u32::from(v);
                let i = runs.partition_point(|&(s, _)| s <= v);
                if i > 0 && u32::from(runs[i - 1].1) >= v32 {
                    return false;
                }
                let touches_left = i > 0 && u32::from(runs[i - 1].1) + 1 == v32;
                let touches_right = i < runs.len() && v32 + 1 == u32::from(runs[i].0);
                match (touches_left, touches_right) {
                    (true, true) => {
                        runs[i - 1].1 = runs[i].1;
                        runs.remove(i);
                    }
                    (true, false) => runs[i - 1].1 = v,
                    (false, true) => runs[i].0 = v,
                    (false, false) => runs.insert(i, (v, v)),
                }
                *len += 1;
                if runs.len() > RUNS_MAX {
                    let expanded: Vec<(u32, u32)> = runs
                        .iter()
                        .map(|&(s, e)| (u32::from(s), u32::from(e)))
                        .collect();
                    *self = from_runs32(&expanded).expect("non-empty runs");
                }
                true
            }
        }
    }
}

/// Builds a bitmap container from sorted, deduplicated values.
fn bitmap_from_sorted(vals: &[u16]) -> Container {
    let mut words = Box::new([0u64; BITMAP_WORDS]);
    for &v in vals {
        words[usize::from(v) >> 6] |= 1u64 << (v & 63);
    }
    Container::Bitmap {
        words,
        len: vals.len() as u32,
    }
}

/// Normalizes a sorted, disjoint, non-adjacent run sequence (inclusive
/// u32 bounds within `0..65536`) into the smallest container encoding:
/// `2·card` (array) vs `4·runs` (run list) vs 8192 (bitmap) bytes,
/// preferring the array on ties. Returns `None` for an empty sequence.
fn from_runs32(runs: &[(u32, u32)]) -> Option<Container> {
    if runs.is_empty() {
        return None;
    }
    let card: usize = runs.iter().map(|&(s, e)| (e - s + 1) as usize).sum();
    let array_bytes = 2 * card;
    let run_bytes = 4 * runs.len();
    if array_bytes <= run_bytes && array_bytes <= BITMAP_BYTES {
        let mut vals = Vec::with_capacity(card);
        vals.extend(runs.iter().flat_map(|&(s, e)| (s..=e).map(|v| v as u16)));
        Some(Container::Array(vals))
    } else if run_bytes <= BITMAP_BYTES {
        Some(Container::Runs {
            runs: runs.iter().map(|&(s, e)| (s as u16, e as u16)).collect(),
            len: card as u32,
        })
    } else {
        let mut words = Box::new([0u64; BITMAP_WORDS]);
        for &(s, e) in runs {
            for v in s..=e {
                words[(v as usize) >> 6] |= 1u64 << (v & 63);
            }
        }
        Some(Container::Bitmap {
            words,
            len: card as u32,
        })
    }
}

/// Merges two sorted run sequences into their coalesced union.
fn union_runs(a: &[(u32, u32)], b: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let mut out: Vec<(u32, u32)> = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let next = if j == b.len() || (i < a.len() && a[i].0 <= b[j].0) {
            let r = a[i];
            i += 1;
            r
        } else {
            let r = b[j];
            j += 1;
            r
        };
        match out.last_mut() {
            // Overlapping or adjacent runs coalesce.
            Some(last) if next.0 <= last.1 + 1 => last.1 = last.1.max(next.1),
            _ => out.push(next),
        }
    }
    out
}

/// Intersects two sorted, disjoint run sequences.
fn intersect_runs(a: &[(u32, u32)], b: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let mut out: Vec<(u32, u32)> = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if lo <= hi {
            out.push((lo, hi));
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

/// Cardinality of a run list.
fn run_card(runs: &[(u16, u16)]) -> u32 {
    runs.iter()
        .map(|&(s, e)| u32::from(e) - u32::from(s) + 1)
        .sum()
}

/// A borrowed chunk in any encoding, held on the heap or inside a row
/// slot, with its cardinality.
#[derive(Clone, Copy)]
enum View<'a> {
    /// Sorted values.
    Array(&'a [u16]),
    /// Flat bitmap and its popcount.
    Bitmap(&'a [u64; BITMAP_WORDS], u32),
    /// Coalesced runs and their total cardinality.
    Runs(&'a [(u16, u16)], u32),
}

impl<'a> View<'a> {
    /// Cardinality, O(1).
    fn len(self) -> usize {
        match self {
            View::Array(vals) => vals.len(),
            View::Bitmap(_, len) | View::Runs(_, len) => len as usize,
        }
    }

    /// Whether `v` is present.
    fn contains(self, v: u16) -> bool {
        match self {
            View::Array(vals) => vals.binary_search(&v).is_ok(),
            View::Bitmap(words, _) => words[usize::from(v) >> 6] & (1u64 << (v & 63)) != 0,
            View::Runs(runs, _) => {
                let i = runs.partition_point(|&(s, _)| s <= v);
                i > 0 && runs[i - 1].1 >= v
            }
        }
    }

    /// The least value `>= v`, if any.
    fn first_from(self, v: u32) -> Option<u32> {
        match self {
            View::Array(vals) => vals
                .get(vals.partition_point(|&x| u32::from(x) < v))
                .map(|&x| u32::from(x)),
            View::Bitmap(words, _) => first_set_from(words, v as usize).map(|x| x as u32),
            View::Runs(runs, _) => runs
                .get(runs.partition_point(|&(_, e)| u32::from(e) < v))
                .map(|&(s, _)| u32::from(s).max(v)),
        }
    }

    /// Appends the chunk's maximal runs to `out` as inclusive bounds
    /// offset by `base`.
    fn extend_runs(self, base: u32, out: &mut Vec<(u32, u32)>) {
        let mut push = |v: u32| match out.last_mut() {
            Some(last) if last.1 + 1 == v => last.1 = v,
            _ => out.push((v, v)),
        };
        match self {
            View::Array(vals) => vals.iter().for_each(|&v| push(base + u32::from(v))),
            View::Bitmap(words, _) => {
                for (k, &w) in words.iter().enumerate() {
                    let mut w = w;
                    while w != 0 {
                        push(base + (k as u32) * 64 + w.trailing_zeros());
                        w &= w - 1;
                    }
                }
            }
            View::Runs(runs, _) => out.extend(
                runs.iter()
                    .map(|&(s, e)| (base + u32::from(s), base + u32::from(e))),
            ),
        }
    }

    /// Ascending iterator over the chunk's values.
    fn iter(self) -> ViewIter<'a> {
        match self {
            View::Array(vals) => ViewIter::Array(vals.iter()),
            View::Bitmap(words, _) => ViewIter::Bitmap {
                words: &words[..],
                k: 0,
                word: 0,
            },
            View::Runs(runs, _) => ViewIter::Runs {
                runs: runs.iter(),
                cur: None,
            },
        }
    }
}

/// Ascending iterator over one chunk's values (`0..65536`).
enum ViewIter<'a> {
    /// Sorted-array scan.
    Array(std::slice::Iter<'a, u16>),
    /// Word-by-word bitmap scan.
    Bitmap {
        /// The bitmap's words.
        words: &'a [u64],
        /// Next word index to load.
        k: usize,
        /// Remaining bits of the current word.
        word: u64,
    },
    /// Run expansion.
    Runs {
        /// Remaining runs.
        runs: std::slice::Iter<'a, (u16, u16)>,
        /// Current run as `(next, last)` inclusive u32 bounds.
        cur: Option<(u32, u32)>,
    },
}

impl Iterator for ViewIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match self {
            ViewIter::Array(it) => it.next().map(|&v| u32::from(v)),
            ViewIter::Bitmap { words, k, word } => loop {
                if *word != 0 {
                    let tz = word.trailing_zeros();
                    *word &= *word - 1;
                    return Some(((*k as u32) - 1) * 64 + tz);
                }
                if *k == words.len() {
                    return None;
                }
                *word = words[*k];
                *k += 1;
            },
            ViewIter::Runs { runs, cur } => {
                if cur.is_none() {
                    *cur = runs.next().map(|&(s, e)| (u32::from(s), u32::from(e)));
                }
                let (next, last) = (*cur)?;
                *cur = if next < last { Some((next + 1, last)) } else { None };
                Some(next)
            }
        }
    }
}

/// A row's storage: empty, one small chunk inside the slot, or heap
/// chunks.
#[derive(Debug, Clone, Default)]
enum Repr {
    /// No columns.
    #[default]
    Empty,
    /// One chunk of `len <= INLINE_VALS` sorted values.
    Values {
        key: u32,
        len: u8,
        vals: [u16; INLINE_VALS],
    },
    /// One chunk of `len <= INLINE_RUNS` coalesced runs.
    Runs {
        key: u32,
        len: u8,
        runs: [(u16, u16); INLINE_RUNS],
    },
    /// Any other row: non-empty chunks ascending by key.
    Chunks(Box<[(u32, Container)]>),
}

/// One row of a [`CompressedRel`]: 2¹⁶-aligned chunks sorted by chunk
/// key, each in the smallest encoding, stored inside the row slot when
/// the row is one small chunk (see the module docs). Empty chunks are
/// never stored. Equality is set equality, whatever the encodings.
#[derive(Debug, Clone, Default)]
pub struct CompressedRow(Repr);

impl CompressedRow {
    /// The `i`-th chunk in ascending key order, if any.
    fn chunk(&self, i: usize) -> Option<(u32, View<'_>)> {
        match &self.0 {
            Repr::Chunks(cs) => cs.get(i).map(|(k, c)| (*k, c.view())),
            _ => self.inline_chunk().filter(|_| i == 0),
        }
    }

    /// The chunks with key `>= key`, ascending.
    fn chunks_from(&self, key: u32) -> impl Iterator<Item = (u32, View<'_>)> {
        let first = match &self.0 {
            Repr::Chunks(cs) => cs.partition_point(|&(k, _)| k < key),
            _ => usize::from(self.inline_chunk().is_some_and(|(k, _)| k < key)),
        };
        (first..).map_while(move |i| self.chunk(i))
    }

    /// The chunk stored inside the slot, if any.
    fn inline_chunk(&self) -> Option<(u32, View<'_>)> {
        match &self.0 {
            Repr::Values { key, len, vals } => {
                Some((*key, View::Array(&vals[..usize::from(*len)])))
            }
            Repr::Runs { key, len, runs } => {
                let runs = &runs[..usize::from(*len)];
                Some((*key, View::Runs(runs, run_card(runs))))
            }
            Repr::Empty | Repr::Chunks(_) => None,
        }
    }

    /// Cardinality of the row — a sum of cached chunk counts, O(#chunks).
    #[must_use]
    pub fn len(&self) -> usize {
        self.chunks_from(0).map(|(_, v)| v.len()).sum()
    }

    /// Whether the row is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        matches!(self.0, Repr::Empty)
    }

    /// Heap bytes the row holds beyond its slot: the chunk slice plus each
    /// container's payload at allocated capacity.
    fn heap_bytes(&self) -> usize {
        match &self.0 {
            Repr::Chunks(cs) => cs.iter().map(|(_, c)| CHUNK_SLOT + c.heap_bytes()).sum(),
            _ => 0,
        }
    }

    /// Bytes the row holds: its slot plus the heap chunk slice and
    /// container payloads at allocated capacity.
    #[must_use]
    pub fn byte_size(&self) -> usize {
        ROW_SLOT + self.heap_bytes()
    }

    /// Whether column `c` is present.
    #[must_use]
    pub fn contains(&self, c: u32) -> bool {
        self.chunks_from(c >> 16)
            .next()
            .is_some_and(|(k, v)| k == c >> 16 && v.contains((c & 0xFFFF) as u16))
    }

    /// The least column `>= c`, if any.
    #[must_use]
    pub(crate) fn first_from(&self, c: u32) -> Option<u32> {
        let key = c >> 16;
        let low = |k: u32| if k == key { c & 0xFFFF } else { 0 };
        match &self.0 {
            // The SCC pass seeks every row: answer the commonest row
            // without building a chunk iterator.
            Repr::Values { key: k, len, vals } if *k >= key => vals[..usize::from(*len)]
                .iter()
                .find(|&&x| u32::from(x) >= low(*k))
                .map(|&x| (*k << 16) | u32::from(x)),
            _ => self
                .chunks_from(key)
                .find_map(|(k, v)| v.first_from(low(k)).map(|x| (k << 16) | x)),
        }
    }

    /// Inserts column `c`; returns whether it was previously absent.
    pub fn insert(&mut self, c: u32) -> bool {
        let key = c >> 16;
        let v = (c & 0xFFFF) as u16;
        match &mut self.0 {
            Repr::Empty => {
                let mut vals = [0; INLINE_VALS];
                vals[0] = v;
                self.0 = Repr::Values { key, len: 1, vals };
                return true;
            }
            Repr::Values { key: k, len, vals } if *k == key => {
                let n = usize::from(*len);
                match vals[..n].binary_search(&v) {
                    Ok(_) => return false,
                    Err(pos) if n < INLINE_VALS => {
                        vals.copy_within(pos..n, pos + 1);
                        vals[pos] = v;
                        *len += 1;
                        return true;
                    }
                    Err(_) => {}
                }
            }
            Repr::Chunks(cs) => {
                if let Ok(i) = cs.binary_search_by_key(&key, |&(k, _)| k) {
                    return cs[i].1.insert(v);
                }
            }
            Repr::Values { .. } | Repr::Runs { .. } => {}
        }
        // The row changes shape: spill to heap chunks, insert, and store
        // the result inline again if it still fits.
        let mut chunks = std::mem::take(self).into_chunks();
        let fresh = match chunks.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => chunks[i].1.insert(v),
            Err(pos) => {
                chunks.insert(pos, (key, Container::Array(vec![v])));
                true
            }
        };
        *self = CompressedRow::from_chunks(chunks);
        fresh
    }

    /// The row's chunks as heap containers.
    fn into_chunks(self) -> Vec<(u32, Container)> {
        match self.0 {
            Repr::Empty => Vec::new(),
            Repr::Values { key, len, vals } => {
                vec![(key, Container::Array(vals[..usize::from(len)].to_vec()))]
            }
            Repr::Runs { key, len, runs } => {
                let runs = &runs[..usize::from(len)];
                vec![(
                    key,
                    Container::Runs {
                        runs: runs.to_vec(),
                        len: run_card(runs),
                    },
                )]
            }
            Repr::Chunks(cs) => cs.into_vec(),
        }
    }

    /// A row of non-empty chunks ascending by key, inline when it is one
    /// small chunk.
    fn from_chunks(chunks: Vec<(u32, Container)>) -> CompressedRow {
        if let [(key, c)] = chunks.as_slice() {
            if let Some(row) = Self::inline(*key, c.view()) {
                return row;
            }
        }
        if chunks.is_empty() {
            return CompressedRow::default();
        }
        CompressedRow(Repr::Chunks(chunks.into_boxed_slice()))
    }

    /// The in-slot form of a one-chunk row, if the chunk is small enough.
    fn inline(key: u32, view: View<'_>) -> Option<CompressedRow> {
        match view {
            View::Array(vals) if vals.len() <= INLINE_VALS => {
                let mut inline = [0; INLINE_VALS];
                inline[..vals.len()].copy_from_slice(vals);
                Some(CompressedRow(Repr::Values {
                    key,
                    len: vals.len() as u8,
                    vals: inline,
                }))
            }
            View::Runs(runs, _) if runs.len() <= INLINE_RUNS => {
                let mut inline = [(0, 0); INLINE_RUNS];
                inline[..runs.len()].copy_from_slice(runs);
                Some(CompressedRow(Repr::Runs {
                    key,
                    len: runs.len() as u8,
                    runs: inline,
                }))
            }
            _ => None,
        }
    }

    /// Clears the row.
    pub fn clear(&mut self) {
        self.0 = Repr::Empty;
    }

    /// Ascending iterator over the row's columns.
    #[must_use]
    pub fn iter(&self) -> RowValues<'_> {
        RowValues {
            row: self,
            next: 0,
            cur: None,
        }
    }

    /// Appends the row's columns to `out` as ascending, disjoint
    /// inclusive runs.
    fn extend_runs(&self, out: &mut Vec<(u32, u32)>) {
        for (key, v) in self.chunks_from(0) {
            v.extend_runs(key << 16, out);
        }
    }

    /// Builds a normalized row from ascending, disjoint inclusive runs
    /// (adjacent runs are merged): split by chunk, pick the smallest
    /// encoding per chunk, and keep a lone small chunk inline.
    fn from_runs(runs: &[(u32, u32)]) -> CompressedRow {
        let mut chunks: Vec<(u32, Container)> = Vec::new();
        let mut local: Vec<(u32, u32)> = Vec::new();
        let mut key = 0u32;
        for &(s, e) in runs {
            let mut s = s;
            loop {
                if s >> 16 != key {
                    if let Some(c) = from_runs32(&local) {
                        chunks.push((key, c));
                    }
                    local.clear();
                    key = s >> 16;
                }
                let last = e.min(s | 0xFFFF);
                match local.last_mut() {
                    Some(l) if (s & 0xFFFF) == l.1 + 1 => l.1 = last & 0xFFFF,
                    _ => local.push((s & 0xFFFF, last & 0xFFFF)),
                }
                if last == e {
                    break;
                }
                s = last + 1;
            }
        }
        if let Some(c) = from_runs32(&local) {
            chunks.push((key, c));
        }
        CompressedRow::from_chunks(chunks)
    }

    /// Builds a normalized row from sorted, deduplicated columns: coalesce
    /// into maximal runs, split by chunk, pick the smallest encoding per
    /// chunk.
    #[must_use]
    pub fn from_sorted(vals: &[u32]) -> CompressedRow {
        let mut runs: Vec<(u32, u32)> = Vec::new();
        for &v in vals {
            match runs.last_mut() {
                Some(last) if last.1 + 1 == v => last.1 = v,
                _ => runs.push((v, v)),
            }
        }
        CompressedRow::from_runs(&runs)
    }

    /// Normalized union of two rows via a run merge.
    #[must_use]
    pub fn union(&self, other: &CompressedRow) -> CompressedRow {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        self.extend_runs(&mut a);
        other.extend_runs(&mut b);
        CompressedRow::from_runs(&union_runs(&a, &b))
    }

    /// Normalized intersection of two rows via a run merge.
    #[must_use]
    pub fn intersect(&self, other: &CompressedRow) -> CompressedRow {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        self.extend_runs(&mut a);
        other.extend_runs(&mut b);
        CompressedRow::from_runs(&intersect_runs(&a, &b))
    }
}

impl PartialEq for CompressedRow {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for CompressedRow {}

/// Ascending iterator over one [`CompressedRow`]'s columns.
pub struct RowValues<'a> {
    row: &'a CompressedRow,
    /// Index of the next chunk to open.
    next: usize,
    cur: Option<(u32, ViewIter<'a>)>,
}

impl Iterator for RowValues<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        loop {
            if let Some((base, it)) = &mut self.cur {
                if let Some(v) = it.next() {
                    return Some((*base << 16) | v);
                }
            }
            let (key, v) = self.row.chunk(self.next)?;
            self.next += 1;
            self.cur = Some((key, v.iter()));
        }
    }
}

/// A compressed square boolean matrix over `0..n`: one chunk-container
/// row per source, with a cached total entry count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompressedRel {
    n: usize,
    rows: Vec<CompressedRow>,
    entries: usize,
}

impl CompressedRel {
    /// The empty (all-zero) relation of dimension `n`.
    ///
    /// # Panics
    /// Panics if `n` exceeds `u32::MAX` (column indices are stored as
    /// chunked `u16` values under `u32` keys).
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(
            u32::try_from(n).is_ok(),
            "CompressedRel dimension exceeds u32 index space"
        );
        CompressedRel {
            n,
            rows: vec![CompressedRow::default(); n],
            entries: 0,
        }
    }

    /// The identity relation of dimension `n` (a diagonal fill).
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = CompressedRel::new(n);
        for (i, row) in m.rows.iter_mut().enumerate() {
            row.insert(i as u32);
        }
        m.entries = n;
        m
    }

    /// The dimension `n`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Total pairs stored — a cached running count, O(1).
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.entries
    }

    /// Bytes the relation holds: `n` row slots plus every heap row's
    /// chunk slice and container payloads at allocated capacity — the
    /// units the relation-memory budget axis accounts for this backend.
    /// O(n + #heap chunks).
    #[must_use]
    pub fn byte_size(&self) -> usize {
        let heap: usize = self.rows.iter().map(CompressedRow::heap_bytes).sum();
        self.n * ROW_SLOT + heap
    }

    /// Whether bit `(r, c)` is set.
    ///
    /// # Panics
    /// Panics if `r` or `c` is out of range.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> bool {
        assert!(r < self.n && c < self.n);
        self.rows[r].contains(c as u32)
    }

    /// Sets bit `(r, c)`; returns whether it was previously clear.
    ///
    /// # Panics
    /// Panics if `r` or `c` is out of range.
    pub fn set(&mut self, r: usize, c: usize) -> bool {
        assert!(r < self.n && c < self.n);
        let fresh = self.rows[r].insert(c as u32);
        if fresh {
            self.entries += 1;
        }
        fresh
    }

    /// Row `r`'s chunk-container row.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn row(&self, r: usize) -> &CompressedRow {
        assert!(r < self.n);
        &self.rows[r]
    }

    /// Clears row `r`.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    pub fn clear_row(&mut self, r: usize) {
        assert!(r < self.n);
        self.entries -= self.rows[r].len();
        self.rows[r].clear();
    }

    /// Number of set bits, O(1) (cached).
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.entries
    }

    /// Whether no bit is set.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.entries == 0
    }

    /// Union of `other` into `self`, row by row (normalized rows).
    ///
    /// # Panics
    /// Panics if the dimensions differ.
    pub fn or_assign(&mut self, other: &CompressedRel) {
        assert_eq!(self.n, other.n, "CompressedRel dimension mismatch");
        let mut entries = 0;
        for (a, b) in self.rows.iter_mut().zip(&other.rows) {
            if !b.is_empty() {
                if a.is_empty() {
                    *a = b.clone();
                } else {
                    *a = a.union(b);
                }
            }
            entries += a.len();
        }
        self.entries = entries;
    }

    /// Intersection of `other` into `self`, row by row (normalized rows).
    ///
    /// # Panics
    /// Panics if the dimensions differ.
    pub fn and_assign(&mut self, other: &CompressedRel) {
        assert_eq!(self.n, other.n, "CompressedRel dimension mismatch");
        let mut entries = 0;
        for (a, b) in self.rows.iter_mut().zip(&other.rows) {
            if !a.is_empty() {
                if b.is_empty() {
                    a.clear();
                } else {
                    *a = a.intersect(b);
                }
            }
            entries += a.len();
        }
        self.entries = entries;
    }

    /// Ascending iterator over the set columns of row `r`.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    pub fn iter_row(&self, r: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(r).iter().map(|c| c as usize)
    }

    /// Ascending lexicographic iterator over all set `(r, c)` pairs — the
    /// `BTreeSet<(usize, usize)>` order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.rows
            .iter()
            .enumerate()
            .flat_map(|(r, row)| row.iter().map(move |c| (r, c as usize)))
    }

    /// A copy resized to dimension `d ≥ n` (new rows are empty).
    ///
    /// # Panics
    /// Panics if `d < n` (shrinking would silently drop pairs).
    #[must_use]
    pub fn resized(&self, d: usize) -> CompressedRel {
        assert!(d >= self.n, "CompressedRel cannot shrink");
        let mut out = CompressedRel::new(d);
        out.rows[..self.n].clone_from_slice(&self.rows);
        out.entries = self.entries;
        out
    }

    /// Relational composition (`self` applied first): output row `a`
    /// gathers `other`'s rows over every entry of `self`'s row `a`, then
    /// normalizes. See [`compose_governed`](Self::compose_governed).
    ///
    /// # Panics
    /// Panics if the dimensions differ.
    #[must_use]
    pub fn compose(&self, other: &CompressedRel) -> CompressedRel {
        match self.compose_governed(other, &Budget::unlimited(), 1) {
            Ok(m) => m,
            Err(_) => unreachable!("unlimited budget never trips"),
        }
    }

    /// As [`compose`](Self::compose), fanning output rows across
    /// [`effective_workers`]`(threads)` workers (bit-identical at every
    /// worker count) and polling `budget` every [`ROW_POLL_STRIDE`] rows
    /// via [`Budget::check_rel`] with the bytes the output holds so far.
    ///
    /// # Errors
    /// Returns the tripped axis; partial output is discarded.
    ///
    /// # Panics
    /// Panics if the dimensions differ.
    pub fn compose_governed(
        &self,
        other: &CompressedRel,
        budget: &Budget,
        threads: usize,
    ) -> Result<CompressedRel, BudgetExceeded> {
        assert_eq!(self.n, other.n, "CompressedRel dimension mismatch");
        let n = self.n;
        let mut out = CompressedRel::new(n);
        if n == 0 {
            return Ok(out);
        }
        let bytes = AtomicUsize::new(n * ROW_SLOT);
        let compose_rows =
            |first: usize, rows: &mut [CompressedRow]| -> Result<(), BudgetExceeded> {
                let mut buf: Vec<u32> = Vec::new();
                for (i, orow) in rows.iter_mut().enumerate() {
                    if i % ROW_POLL_STRIDE == 0 {
                        if let Some(reason) = budget.check_rel(bytes.load(Ordering::Relaxed)) {
                            return Err(reason);
                        }
                    }
                    let a = first + i;
                    buf.clear();
                    for b in self.rows[a].iter() {
                        buf.extend(other.rows[b as usize].iter());
                    }
                    buf.sort_unstable();
                    buf.dedup();
                    *orow = CompressedRow::from_sorted(&buf);
                    bytes.fetch_add(orow.heap_bytes(), Ordering::Relaxed);
                }
                Ok(())
            };
        run_row_tasks(n, threads, &mut out.rows, &compose_rows)?;
        out.entries = out.rows.iter().map(CompressedRow::len).sum();
        Ok(out)
    }

    /// The reflexive-transitive closure: row `r` of the result holds every
    /// node reachable from `r` (including `r` itself), stored normalized.
    /// See [`closure_governed`](Self::closure_governed).
    #[must_use]
    pub fn closure_reflexive_transitive(&self, threads: usize) -> CompressedRel {
        match self.closure_governed(&Budget::unlimited(), threads) {
            Ok(m) => m,
            Err(_) => unreachable!("unlimited budget never trips"),
        }
    }

    /// As [`closure_reflexive_transitive`](Self::closure_reflexive_transitive),
    /// by condensation: one Tarjan pass emits the strongly connected
    /// components sinks first, so each component's row — its members plus
    /// the rows of its successor components, run-merged and normalized —
    /// is built once, from rows already built, and copied to every member.
    /// The pass is serial, so the output is the same at every worker
    /// count.
    /// `budget` is polled via [`Budget::check_rel`] every
    /// [`ROW_POLL_STRIDE`] traversal steps and output rows, with the bytes
    /// the output holds so far.
    ///
    /// # Errors
    /// Returns the tripped axis; the partial closure is discarded.
    pub fn closure_governed(
        &self,
        budget: &Budget,
        _threads: usize,
    ) -> Result<CompressedRel, BudgetExceeded> {
        let mut out = CompressedRel::new(self.n);
        let mut bytes = self.n * ROW_SLOT;
        let mut poll = Poller::new(budget);
        let cond = Condensation::new(self, &mut poll, bytes)?;
        // `merged[d] == c` once component `d`'s row is folded into `c`'s.
        let mut merged = vec![u32::MAX; cond.components()];
        let mut runs: Vec<(u32, u32)> = Vec::new();
        for c in 0..cond.components() {
            let members = cond.members(c);
            runs.clear();
            for &m in members {
                match runs.last_mut() {
                    Some(last) if last.1 + 1 == m => last.1 = m,
                    _ => runs.push((m, m)),
                }
            }
            for &m in members {
                for t in self.rows[m as usize].iter() {
                    let d = cond.comp(t as usize);
                    if d != c && merged[d] != c as u32 {
                        merged[d] = c as u32;
                        out.rows[cond.members(d)[0] as usize].extend_runs(&mut runs);
                    }
                }
            }
            runs.sort_unstable();
            runs.dedup_by(|next, last| {
                let overlaps = next.0 <= last.1 + 1;
                if overlaps {
                    last.1 = last.1.max(next.1);
                }
                overlaps
            });
            let row = CompressedRow::from_runs(&runs);
            let heap = row.heap_bytes();
            out.entries += row.len() * members.len();
            for &m in members {
                poll.tick(bytes)?;
                bytes += heap;
                out.rows[m as usize] = row.clone();
            }
        }
        Ok(out)
    }
}

impl Successors for CompressedRel {
    fn nodes(&self) -> usize {
        self.n
    }

    fn succ_from(&self, v: usize, from: usize) -> Option<usize> {
        let from = u32::try_from(from).ok()?;
        self.rows[v].first_from(from).map(|c| c as usize)
    }
}

/// A governed per-chunk row task: `(first_row, rows)` to a budget verdict.
type RowTask<'a> = dyn Fn(usize, &mut [CompressedRow]) -> Result<(), BudgetExceeded> + Sync + 'a;

/// Fans `f(first_row, rows)` over contiguous row chunks across
/// [`effective_workers`]`(threads)` workers (serial below
/// [`par_min_dim`]), mirroring the sparse backend's task layout so
/// governed stops stay bit-identical per worker count.
fn run_row_tasks(
    n: usize,
    threads: usize,
    rows: &mut [CompressedRow],
    f: &RowTask<'_>,
) -> Result<(), BudgetExceeded> {
    let workers = effective_workers(threads).min(n.max(1));
    if workers <= 1 || n < par_min_dim() {
        f(0, rows)
    } else {
        let chunk = row_task_chunk(n, workers);
        let tasks: Vec<Box<dyn FnOnce() -> Result<(), BudgetExceeded> + Send + '_>> = rows
            .chunks_mut(chunk)
            .enumerate()
            .map(|(c, rows)| {
                let g: Box<dyn FnOnce() -> Result<(), BudgetExceeded> + Send + '_> =
                    Box::new(move || f(c * chunk, rows));
                g
            })
            .collect();
        for o in crate::sched::run_tasks(workers, tasks) {
            o?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_pairs(n: usize, pairs: &[(usize, usize)]) -> CompressedRel {
        let mut m = CompressedRel::new(n);
        for &(a, b) in pairs {
            m.set(a, b);
        }
        m
    }

    /// Bytes of a heap row holding one container of `payload` bytes.
    fn one_chunk(payload: usize) -> usize {
        ROW_SLOT + CHUNK_SLOT + payload
    }

    #[test]
    fn set_get_iter_ascending_across_chunk_boundary() {
        let mut m = CompressedRel::new(200_000);
        assert!(m.set(0, 65_536));
        assert!(m.set(0, 65_535));
        assert!(m.set(0, 2));
        assert!(!m.set(0, 2));
        assert!(m.set(131_072, 7));
        assert!(m.get(0, 65_535) && m.get(0, 65_536) && !m.get(65_535, 0));
        assert_eq!(
            m.iter().collect::<Vec<_>>(),
            vec![(0, 2), (0, 65_535), (0, 65_536), (131_072, 7)]
        );
        assert_eq!(m.count_ones(), 4);
        assert_eq!(m.entry_count(), 4);
        m.clear_row(0);
        assert_eq!(m.entry_count(), 1);
    }

    #[test]
    fn container_encodings_chosen_by_size() {
        // A single long run spanning a chunk boundary: one run container
        // per chunk, on the heap because the row has two chunks.
        let row = CompressedRow::from_sorted(&(60_000..70_000).collect::<Vec<u32>>());
        assert_eq!(row.len(), 10_000);
        assert_eq!(row.byte_size(), ROW_SLOT + 2 * (CHUNK_SLOT + 4));
        // A lone run lives inside the slot.
        let inline = CompressedRow::from_sorted(&(100..5_000).collect::<Vec<u32>>());
        assert_eq!(inline.byte_size(), ROW_SLOT);
        assert_eq!(inline.iter().count(), 4_900);
        // Scattered values stay an array while small...
        let sparse_vals: Vec<u32> = (0..1000).map(|i| i * 7).collect();
        let arr = CompressedRow::from_sorted(&sparse_vals);
        assert_eq!(arr.byte_size(), one_chunk(2 * 1000));
        // ...and become a bitmap once the array would exceed 8192 bytes.
        let dense_vals: Vec<u32> = (0..10_000).map(|i| i * 6).collect();
        let bm = CompressedRow::from_sorted(&dense_vals);
        assert_eq!(bm.byte_size(), one_chunk(BITMAP_BYTES));
        assert_eq!(bm.len(), 10_000);
        assert!(bm.contains(6 * 9_999) && !bm.contains(5));
        // All three encodings iterate ascending.
        assert_eq!(bm.iter().collect::<Vec<_>>(), dense_vals);
        assert_eq!(arr.iter().collect::<Vec<_>>(), sparse_vals);
    }

    #[test]
    fn inline_rows_spill_and_stay_equal() {
        // Eight values fit the slot; the ninth spills to a heap array.
        let mut row = CompressedRow::default();
        for v in (0..8).rev() {
            assert!(row.insert(v * 3));
        }
        assert_eq!(row.byte_size(), ROW_SLOT);
        assert!(!row.insert(9));
        assert!(row.insert(100));
        assert!(row.byte_size() > ROW_SLOT);
        assert_eq!(row.len(), 9);
        // A value in a second chunk spills too.
        let mut two = CompressedRow::from_sorted(&[5]);
        assert!(two.insert(70_000));
        assert_eq!(two.iter().collect::<Vec<_>>(), vec![5, 70_000]);
        // Inline runs take point inserts, spilling past four runs.
        let mut runs = CompressedRow::from_sorted(&(0..100).collect::<Vec<u32>>());
        assert_eq!(runs.byte_size(), ROW_SLOT);
        for v in [200, 300, 400] {
            assert!(runs.insert(v));
        }
        assert_eq!(runs.byte_size(), ROW_SLOT);
        assert!(runs.insert(500));
        assert!(runs.byte_size() > ROW_SLOT);
        assert!(!runs.insert(50));
        // Equality ignores the encoding.
        let want: Vec<u32> = (0..100).chain([200, 300, 400, 500]).collect();
        assert_eq!(runs, CompressedRow::from_sorted(&want));
        assert_eq!(runs.first_from(101), Some(200));
        assert_eq!(runs.first_from(501), None);
    }

    #[test]
    fn point_inserts_promote_and_coalesce() {
        // Runs container: fill 0..=4, then 6, then bridge with 5.
        let mut row = CompressedRow::from_sorted(&[0, 1, 2, 3, 4]);
        assert!(row.insert(6));
        assert!(row.insert(5));
        assert!(!row.insert(3));
        assert_eq!(row.iter().collect::<Vec<_>>(), (0..=6).collect::<Vec<_>>());
        // Array promotes to bitmap past ARRAY_MAX point inserts.
        let mut big = CompressedRow::default();
        for v in 0..=(ARRAY_MAX as u32) {
            assert!(big.insert(v * 2));
        }
        assert_eq!(big.len(), ARRAY_MAX + 1);
        assert_eq!(big.byte_size(), one_chunk(BITMAP_BYTES));
        assert!(big.contains(2 * ARRAY_MAX as u32) && !big.contains(1));
        // The u16 edge: coalescing against a run ending at 65535 must not
        // overflow.
        let mut edge = CompressedRow::from_sorted(&(65_530..=65_535).collect::<Vec<u32>>());
        assert!(!edge.insert(65_535));
        assert!(edge.insert(65_529));
        assert_eq!(edge.len(), 7);
    }

    #[test]
    fn union_meet_normalize() {
        let a = CompressedRow::from_sorted(&[0, 1, 2, 100, 65_535, 65_536]);
        let b = CompressedRow::from_sorted(&[2, 3, 100, 65_536, 200_000]);
        let u = a.union(&b);
        assert_eq!(
            u.iter().collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 100, 65_535, 65_536, 200_000]
        );
        let m = a.intersect(&b);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![2, 100, 65_536]);
        let mut ra = from_pairs(70_000, &[(0, 1), (2, 3)]);
        let rb = from_pairs(70_000, &[(0, 1), (4, 69_999)]);
        ra.or_assign(&rb);
        assert_eq!(ra.count_ones(), 3);
        ra.and_assign(&rb);
        assert_eq!(ra.iter().collect::<Vec<_>>(), vec![(0, 1), (4, 69_999)]);
    }

    #[test]
    fn compose_and_closure_match_sparse_kernel() {
        let pairs = [(0, 1), (1, 2), (2, 0), (5, 299)];
        let cp = from_pairs(300, &pairs);
        let mut sp = crate::SparseRel::new(300);
        for &(a, b) in &pairs {
            sp.set(a, b);
        }
        let cc = cp.closure_reflexive_transitive(1);
        let sc = sp.closure_reflexive_transitive(1);
        assert_eq!(cc.iter().collect::<Vec<_>>(), sc.iter().collect::<Vec<_>>());
        assert_eq!(
            cp.compose(&cp).iter().collect::<Vec<_>>(),
            sp.compose(&sp).iter().collect::<Vec<_>>()
        );
        for threads in [2, 4, 8] {
            assert_eq!(cp.closure_reflexive_transitive(threads), cc);
            assert_eq!(cp.compose_governed(&cp, &Budget::unlimited(), threads), Ok(cp.compose(&cp)));
        }
        let id = CompressedRel::identity(300);
        assert_eq!(cp.compose(&id), cp);
        assert_eq!(id.compose(&cp), cp);
    }

    #[test]
    fn governed_ops_trip_on_timing_and_memory_axes() {
        let m = from_pairs(64, &[(0, 1)]);
        let cancelled = {
            let tok = crate::budget::CancelToken::new();
            tok.cancel();
            Budget::unlimited().with_cancel(tok)
        };
        assert_eq!(
            m.compose_governed(&m, &cancelled, 1),
            Err(BudgetExceeded::Cancelled)
        );
        assert_eq!(
            m.closure_governed(&cancelled, 2),
            Err(BudgetExceeded::Cancelled)
        );
        // A zero-byte memory cap trips before the first row of output.
        let capped = Budget::unlimited().with_max_rel_entries(0);
        assert_eq!(m.closure_governed(&capped, 1), Err(BudgetExceeded::RelMemory));
        assert!(m.closure_governed(&Budget::unlimited(), 2).is_ok());
    }

    #[test]
    fn ring_closure_stays_within_byte_budget_sparse_exceeds() {
        // 64-state rings: every closure row is one 64-entry run, held
        // inside its row slot. Raw u32 adjacency would cost 256 bytes per
        // row.
        let n = 8192;
        let mut m = CompressedRel::new(n);
        for i in 0..n {
            m.set(i, (i & !63) + ((i + 1) & 63));
        }
        let closed = m.closure_reflexive_transitive(1);
        assert_eq!(closed.entry_count(), n * 64);
        assert_eq!(closed.byte_size(), n * ROW_SLOT);
        // A budget between the two byte counts admits the compressed
        // closure and would reject a raw-entry one.
        let cap = 4 * closed.entry_count() / 2;
        assert!(closed.byte_size() < cap);
        let governed = m.closure_governed(&Budget::unlimited().with_max_rel_entries(cap), 1);
        assert_eq!(governed, Ok(closed));
    }

    #[test]
    fn resize_preserves_pairs() {
        let m = from_pairs(3, &[(0, 2), (2, 1)]);
        let big = m.resized(200_000);
        assert_eq!(big.iter().collect::<Vec<_>>(), m.iter().collect::<Vec<_>>());
        assert_eq!(big.dim(), 200_000);
        assert_eq!(big.entry_count(), 2);
    }
}

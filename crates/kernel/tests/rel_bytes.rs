//! `Rel::mem_bytes` against the bytes the process really holds.
//!
//! A counting global allocator tracks the live bytes requested from the
//! system allocator. Building a compressed relation and reading the live
//! count before and after gives what the relation holds (temporaries
//! freed inside the build cancel out); the reported `mem_bytes` must be
//! within 10% of it, so the relation-memory budget governs real memory.
//!
//! Everything runs in one test, so no other test thread allocates while
//! a measurement is in flight.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use eclectic_kernel::{force_rel_backend, Budget, Rel, RelBackend, RelChoice, Rng};

/// Forwards to the system allocator, counting the live bytes requested.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every method forwards to `System` with the caller's own
// pointer and layout, so `System`'s guarantees carry over unchanged; the
// counter is a statistic and publishes no memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The value `build` returns and the live bytes it left allocated.
fn held_by<T>(build: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    let value = build();
    let after = LIVE.load(Ordering::Relaxed);
    (
        value,
        usize::try_from(after - before).expect("build freed more than it kept"),
    )
}

fn assert_within_10_percent(what: &str, reported: usize, live: usize) {
    let diff = reported.abs_diff(live);
    assert!(
        diff * 10 <= live,
        "{what}: mem_bytes {reported} vs {live} live bytes"
    );
}

/// A 2¹⁶-state ring of 64-state blocks: every row and every closure row
/// fits its slot.
fn ring_closure() {
    let n = 1 << 16;
    let mut ring = Rel::with_backend(n, RelBackend::Compressed);
    for i in 0..n {
        ring.set(i, (i & !63) + ((i + 1) & 63));
    }
    let (closed, live) = held_by(|| ring.closure_governed(&Budget::unlimited(), 1).unwrap());
    assert_eq!(closed.count_ones(), n * 64);
    assert_within_10_percent("ring closure", closed.mem_bytes(), live);
}

/// A random relation whose rows take every encoding: inline values,
/// heap arrays, bitmaps and (after normalization) inline and heap runs,
/// some spanning two chunks.
fn mixed_encodings() {
    let n = 100_000;
    let _g = force_rel_backend(RelChoice::Compressed);
    let (set_built, live) = held_by(|| {
        let mut rng = Rng::new(0xb17e5);
        let mut m = Rel::new(n);
        for r in 0..n {
            match rng.below(1000) {
                // A few nearby columns: an inline array.
                0..=599 => {
                    let base = rng.below(n - 8);
                    for _ in 0..rng.range(1, 8) {
                        m.set(r, base + rng.below(8));
                    }
                }
                // A contiguous stretch: a run once normalized.
                600..=899 => {
                    let lo = rng.below(n - 200);
                    for c in lo..lo + rng.range(10, 190) {
                        m.set(r, c);
                    }
                }
                // Scattered columns across both chunks: heap arrays.
                900..=997 => {
                    for _ in 0..rng.range(9, 200) {
                        m.set(r, rng.below(n));
                    }
                }
                // A dense chunk: a bitmap.
                _ => {
                    for c in 0..5_000 {
                        m.set(r, c * 7);
                    }
                }
            }
        }
        m
    });
    assert_within_10_percent("set-built relation", set_built.mem_bytes(), live);
    // Composing with the identity rebuilds every row normalized.
    let identity = Rel::identity(n);
    let (normalized, live) = held_by(|| {
        set_built
            .compose_governed(&identity, &Budget::unlimited(), 1)
            .unwrap()
    });
    assert!(normalized.set_eq(&set_built));
    assert!(normalized.mem_bytes() < set_built.mem_bytes());
    assert_within_10_percent("normalized relation", normalized.mem_bytes(), live);
}

#[test]
fn mem_bytes_matches_live_allocation() {
    ring_closure();
    mixed_encodings();
}

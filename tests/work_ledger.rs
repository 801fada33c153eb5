//! The work ledger: the heap allocations of one served request, pinned.
//!
//! Timings drift with the host; the work a request does does not. This test
//! binary installs a counting global allocator whose counts are kept per
//! thread, and serves fixed requests through `serve_chunks` (the socket-free
//! harness that answers exactly as a reactor does), with tracing off. Each
//! request's allocation count and bytes allocated must stay within its pin,
//! which is what was measured when the pin was set plus a small slack. The
//! pins are a ratchet: a count that falls well under its pin fails too, so
//! a change that removes work lowers the pin it beat.
//!
//! An allocation is one `alloc`, `alloc_zeroed` or `realloc` call; its
//! bytes are the size it asks for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use ayd_serve::{serve_chunks, AppState, ServerConfig};

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the thread's slots may already be gone while it exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counting touches only `const`-initialised thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// How far an allocation count may rise above its measured value before
/// the ledger fails; a count more than twice this far under its pin fails
/// too.
const SLACK: u64 = 2;

/// The same for the bytes allocated (the sum of the sizes requested).
const BYTE_SLACK: u64 = 512;

/// The ceilings of one request: the allocations and bytes measured when
/// the pin was set, plus `SLACK` and `BYTE_SLACK`.
struct Pin {
    allocations: u64,
    bytes: u64,
}

/// Pins of one request through `serve_chunks` on a warmed process.
const COLD_OPTIMIZE: Pin = Pin {
    allocations: 109,
    bytes: 22_924,
};
const WARM_OPTIMIZE_JSON: Pin = Pin {
    allocations: 84,
    bytes: 8_304,
};
const WARM_OPTIMIZE_CSV: Pin = Pin {
    allocations: 35,
    bytes: 3_860,
};
const COLD_BATCH_JSON: Pin = Pin {
    allocations: 573,
    bytes: 112_931,
};
const WARM_BATCH_JSON: Pin = Pin {
    allocations: 477,
    bytes: 50_999,
};
const WARM_BATCH_CSV: Pin = Pin {
    allocations: 109,
    bytes: 15_925,
};

/// The `/v1/optimize` query of the ledger: Hera, scenario 1, joint `(P, T)`.
const QUERY: &str = r#"{"platform":"Hera","scenario":1}"#;

/// Eight queries, one batch slice: every platform, joint and fixed `P`,
/// `exp`, `weibull:0.7` and `shifted:600`, two profiles, and one
/// configuration over two pattern lengths (one block).
const BATCH: &str = r#"{"queries":[
{"platform":"Hera","scenario":1},
{"platform":"Atlas","scenario":2,"failure_model":"weibull:0.7"},
{"platform":"Coastal","scenario":3,"processors":1024},
{"platform":"Coastal SSD","scenario":4,"profile":"powerlaw:0.8"},
{"platform":"Hera","scenario":5,"processors":512,"pattern_length":1800},
{"platform":"Hera","scenario":5,"processors":512,"pattern_length":3600},
{"platform":"Atlas","scenario":6,"lambda_multiplier":10,"failure_model":"shifted:600"},
{"platform":"Coastal","scenario":1,"profile":"gustafson:0.05","processors":256}
]}"#;

fn request(path: &str, body: &str, csv: bool) -> Vec<u8> {
    let accept = if csv { "accept: text/csv\r\n" } else { "" };
    format!(
        "POST {path} HTTP/1.1\r\nhost: ledger\r\n{accept}content-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn state() -> Arc<AppState> {
    AppState::new(&ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    })
}

/// Serves `request` on `state` and returns its allocations and bytes
/// allocated on this thread, after checking that it answered 200.
fn serve(state: &Arc<AppState>, request: &[u8]) -> (u64, u64) {
    let shutdown = AtomicBool::new(false);
    let before = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    let out = serve_chunks(&[request], state, &shutdown);
    let after = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    assert!(
        out.starts_with(b"HTTP/1.1 200"),
        "{}",
        String::from_utf8_lossy(&out)
    );
    (after.0 - before.0, after.1 - before.1)
}

/// Takes the process's one-time allocations (lazy statics, first-use
/// buffers) on a throwaway state, so that the measured requests count only
/// their own work.
fn warm_process() {
    let state = state();
    for csv in [false, true] {
        serve(&state, &request("/v1/optimize", QUERY, csv));
        serve(&state, &request("/v1/batch", BATCH, csv));
    }
}

fn check(what: &str, (allocations, bytes): (u64, u64), pin: Pin) {
    for (unit, count, ceiling, slack) in [
        ("allocations", allocations, pin.allocations, SLACK),
        ("bytes", bytes, pin.bytes, BYTE_SLACK),
    ] {
        assert!(
            count <= ceiling,
            "{what}: {count} {unit}, over its pin of {ceiling}"
        );
        assert!(
            count + 2 * slack >= ceiling,
            "{what}: {count} {unit}, far under its pin of {ceiling}: lower the pin to {}",
            count + slack
        );
    }
}

#[test]
fn a_served_query_allocates_within_its_pins() {
    warm_process();
    let state = state();
    check(
        "cold /v1/optimize",
        serve(&state, &request("/v1/optimize", QUERY, false)),
        COLD_OPTIMIZE,
    );
    check(
        "warm /v1/optimize (JSON)",
        serve(&state, &request("/v1/optimize", QUERY, false)),
        WARM_OPTIMIZE_JSON,
    );
    check(
        "warm /v1/optimize (CSV)",
        serve(&state, &request("/v1/optimize", QUERY, true)),
        WARM_OPTIMIZE_CSV,
    );
}

#[test]
fn a_served_batch_slice_allocates_within_its_pins() {
    warm_process();
    let state = state();
    check(
        "cold 8-query /v1/batch",
        serve(&state, &request("/v1/batch", BATCH, false)),
        COLD_BATCH_JSON,
    );
    check(
        "warm 8-query /v1/batch (JSON)",
        serve(&state, &request("/v1/batch", BATCH, false)),
        WARM_BATCH_JSON,
    );
    check(
        "warm 8-query /v1/batch (CSV)",
        serve(&state, &request("/v1/batch", BATCH, true)),
        WARM_BATCH_CSV,
    );
}

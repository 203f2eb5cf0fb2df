//! The allocation-free steady state, enforced at the allocator: once a
//! batched round has warmed the site's scratch and the coordinator's
//! decode buffers, driving the *library data path* — columnar frame in,
//! columnar reply out, survival fold on the coordinator — must perform
//! zero heap allocations. This is the harness the zero-copy wire layout
//! exists for: the footprint tests in `dsud-core` watch buffer capacities,
//! this test watches `malloc` itself.
//!
//! Scope: the test drives `Service::handle_frame` and
//! `wire::decode_survivals_into` directly (the library data path). Real
//! transports add channel/socket frame shipping on top, which necessarily
//! allocates the owned reply frame; that overhead is bounded per *round*,
//! not per tuple, and is covered by the footprint assertions in the
//! transport tests.
//!
//! The counter is process-wide, so the target runs without the libtest
//! harness (`harness = false`): `main` runs the checks in sequence on the
//! only thread of the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dsud_core::{LocalSite, SiteOptions};
use dsud_net::{wire, Message, Service, TupleBlock, TupleMsg};
use dsud_uncertain::{Probability, TupleId, UncertainTuple};

/// A shim around the system allocator that counts allocations so tests
/// can assert a code region performs none. Counting is always on; the
/// assertions difference two readings around the region under test.
struct CountingAlloc;

/// Allocations made by every thread of the process, so a measured region
/// that hands work to another thread is still charged for it.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn tuple(site: u32, seq: u64, values: Vec<f64>, p: f64) -> UncertainTuple {
    UncertainTuple::new(TupleId::new(site, seq), values, Probability::new(p).unwrap()).unwrap()
}

/// One warm site plus one encoded columnar feedback frame of `k` probes.
fn warm_site_and_frame(k: u64) -> (LocalSite, Vec<u8>) {
    let tuples: Vec<_> = (0..256)
        .map(|i| tuple(0, i, vec![(i % 16) as f64 + 1.0, (i / 16) as f64 + 1.0], 0.6))
        .collect();
    let mut site = LocalSite::new(0, 2, tuples, SiteOptions::default()).unwrap();
    site.handle(Message::Start { q: 0.01, mask: dsud_uncertain::SubspaceMask::full(2).unwrap() });
    let batch: Vec<TupleMsg> = (0..k)
        .map(|j| TupleMsg::new(&tuple(1, j, vec![4.0 + j as f64, 12.0 - j as f64], 0.5), 0.5))
        .collect();
    let frame = Message::FeedbackBatchC(TupleBlock::from_msgs(&batch)).encode().as_ref().to_vec();
    (site, frame)
}

/// The site half: a warm `LocalSite` answering columnar feedback frames
/// into a reused reply buffer must not allocate at all.
fn warm_site_rounds_allocate_nothing() {
    let (mut site, frame) = warm_site_and_frame(8);
    let mut out = bytes::BytesMut::new();
    // Warm-up: sizes the multi-probe scratch, the gathered probe rows,
    // the survival vector, and the reply buffer.
    for _ in 0..3 {
        site.handle_frame(&frame, &mut out);
    }
    let before = allocations();
    for _ in 0..64 {
        site.handle_frame(&frame, &mut out);
    }
    let after = allocations();
    assert_eq!(after - before, 0, "warm columnar rounds must not touch the allocator (site side)");
    // Sanity: the replies stayed real.
    assert!(matches!(Message::decode_slice(&out), Some(Message::SurvivalBatchReplyC { .. })));
}

/// The coordinator half: decoding a columnar survival reply into a reused
/// vector and folding the factors must not allocate either.
fn warm_coordinator_fold_allocates_nothing() {
    let (mut site, frame) = warm_site_and_frame(8);
    let mut reply = bytes::BytesMut::new();
    site.handle_frame(&frame, &mut reply);

    let mut survivals: Vec<f64> = Vec::new();
    let mut globals = [1.0f64; 8];
    // Warm-up sizes the survival vector once.
    wire::decode_survivals_into(&reply, &mut survivals).expect("reply decodes");

    let before = allocations();
    for _ in 0..64 {
        let pruned = wire::decode_survivals_into(&reply, &mut survivals).expect("reply decodes");
        for (g, s) in globals.iter_mut().zip(&survivals) {
            *g *= s;
        }
        assert!(pruned <= 256);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warm survival folds must not touch the allocator (coordinator side)"
    );
    assert!(globals.iter().all(|g| (0.0..=1.0).contains(g)));
}

/// End to end in one loop: frame in, reply out, fold — the whole batched
/// round body the wire layout optimizes — at zero allocations per round
/// once warm, for both sides at once.
fn warm_round_trip_allocates_nothing() {
    let (mut site, frame) = warm_site_and_frame(16);
    let mut reply = bytes::BytesMut::new();
    let mut survivals: Vec<f64> = Vec::new();
    for _ in 0..3 {
        site.handle_frame(&frame, &mut reply);
        wire::decode_survivals_into(&reply, &mut survivals).expect("reply decodes");
    }
    let before = allocations();
    let mut product = 1.0f64;
    for _ in 0..128 {
        site.handle_frame(&frame, &mut reply);
        wire::decode_survivals_into(&reply, &mut survivals).expect("reply decodes");
        for s in &survivals {
            product *= s;
        }
    }
    let after = allocations();
    assert_eq!(after - before, 0, "warm round trips must not touch the allocator");
    assert!(product.is_finite());
}

/// The checks, in the order they run.
const CHECKS: [(&str, fn()); 3] = [
    ("warm_coordinator_fold_allocates_nothing", warm_coordinator_fold_allocates_nothing),
    ("warm_round_trip_allocates_nothing", warm_round_trip_allocates_nothing),
    ("warm_site_rounds_allocate_nothing", warm_site_rounds_allocate_nothing),
];

/// Runs the checks one after another on the main thread and reports them
/// in libtest's format. The target is built with `harness = false`: the
/// libtest runner keeps threads of its own that allocate while a test
/// measures, and the counter above is process-wide on purpose.
///
/// Understands the libtest arguments that select tests: name filters,
/// `--exact`, `--skip NAME`, `--ignored` and `--list`; other options are
/// accepted and ignored.
fn main() {
    let (mut filters, mut skips) = (Vec::new(), Vec::new());
    let (mut exact, mut ignored, mut list) = (false, false, false);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--exact" => exact = true,
            "--ignored" => ignored = true,
            "--list" => list = true,
            "--skip" => skips.extend(args.next()),
            // Options that take a value as the next argument.
            "--test-threads" | "--format" | "--color" | "--logfile" | "-Z" => {
                args.next();
            }
            flag if flag.starts_with('-') => {}
            filter => filters.push(filter.to_owned()),
        }
    }
    let matches = |name: &str, pattern: &String| {
        if exact {
            name == pattern
        } else {
            name.contains(pattern.as_str())
        }
    };
    let selected: Vec<_> = CHECKS
        .iter()
        .filter(|_| !ignored)
        .filter(|(name, _)| filters.is_empty() || filters.iter().any(|f| matches(name, f)))
        .filter(|(name, _)| !skips.iter().any(|s| matches(name, s)))
        .collect();
    if list {
        for (name, _) in &selected {
            println!("{name}: test");
        }
        return;
    }

    let started = std::time::Instant::now();
    let plural = if selected.len() == 1 { "" } else { "s" };
    println!("\nrunning {} test{plural}", selected.len());
    let mut failed = Vec::new();
    for (name, check) in &selected {
        print!("test {name} ... ");
        std::io::Write::flush(&mut std::io::stdout()).ok();
        if std::panic::catch_unwind(check).is_ok() {
            println!("ok");
        } else {
            println!("FAILED");
            failed.push(*name);
        }
    }
    if !failed.is_empty() {
        println!("\nfailures:");
        for name in &failed {
            println!("    {name}");
        }
    }
    println!(
        "\ntest result: {}. {} passed; {} failed; 0 ignored; 0 measured; {} filtered out; finished in {:.2}s\n",
        if failed.is_empty() { "ok" } else { "FAILED" },
        selected.len() - failed.len(),
        failed.len(),
        CHECKS.len() - selected.len(),
        started.elapsed().as_secs_f64(),
    );
    if !failed.is_empty() {
        std::process::exit(101);
    }
}

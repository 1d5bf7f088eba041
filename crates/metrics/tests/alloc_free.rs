//! Checks the "touching an existing instrument allocates nothing" claims
//! that `MetricsRegistry` and `Counters` make in their docs.
//!
//! A counting global allocator tallies the bytes each thread asks for, so
//! a hot-path call can be measured on its own, unaffected by the test
//! harness's other threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hl_common::counters::{Counters, TaskCounter};
use hl_metrics::MetricsRegistry;

struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` unchanged; the only extra work
// is bumping a const-initialised thread-local, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes this thread allocated while running `f`.
fn allocated_by(f: impl FnOnce()) -> u64 {
    let before = ALLOCATED.with(Cell::get);
    f();
    ALLOCATED.with(Cell::get) - before
}

#[test]
fn counting_allocator_sees_allocations() {
    let bytes = allocated_by(|| drop(std::hint::black_box(vec![0u8; 100])));
    assert!(bytes >= 100, "allocator counted {bytes} bytes for a 100-byte Vec");
}

#[test]
fn counters_incr_on_existing_counter_allocates_nothing() {
    let mut c = Counters::new();
    c.incr("My Group", "widgets", 1);
    c.incr_task(TaskCounter::MapOutputRecords, 1);
    assert!(allocated_by(|| c.incr("New Group", "gadgets", 1)) > 0, "a new counter allocates");
    let bytes = allocated_by(|| {
        for _ in 0..1000 {
            c.incr("My Group", "widgets", 2);
            c.incr_task(TaskCounter::MapOutputRecords, 1);
        }
    });
    assert_eq!(bytes, 0, "incrementing existing counters allocated {bytes} bytes");
    assert_eq!(c.get("My Group", "widgets"), 2001);
    assert_eq!(c.task(TaskCounter::MapOutputRecords), 1001);
}

#[test]
fn registry_updates_on_existing_instruments_allocate_nothing() {
    let mut m = MetricsRegistry::new();
    m.incr("namenode", "rpc.add_block", 1);
    m.observe("namenode", "rpc.latency_us", 5);
    m.set_gauge("datanode.node003", "disk.used", 10);
    m.add_gauge("datanode.node003", "xceivers", 1);
    let bytes = allocated_by(|| {
        for i in 0..1000u64 {
            m.incr("namenode", "rpc.add_block", 1);
            m.observe("namenode", "rpc.latency_us", i * 37);
            m.set_gauge("datanode.node003", "disk.used", i as i64);
            m.add_gauge("datanode.node003", "xceivers", 1);
        }
    });
    assert_eq!(bytes, 0, "updating existing instruments allocated {bytes} bytes");
    assert_eq!(m.counter("namenode", "rpc.add_block"), 1001);
    assert_eq!(m.gauge("datanode.node003", "disk.used"), 999);
}

//! Microbenchmarks of the substrates the stacks are built on: EBR
//! pin/unpin vs hazard-pointer protect, retire throughput of both
//! reclamation schemes, hardware fetch&add, uncontended `Mutex` and
//! TTAS acquisition, and the TSC clock — the per-operation costs that
//! explain the figure numbers.

use criterion::{criterion_group, criterion_main, Criterion};
use sec_reclaim::{Collector, HpDomain};
use sec_sync::{TscClock, TtasLock};
use std::hint::black_box;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

fn configure(g: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>) {
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(150))
        .measurement_time(Duration::from_millis(600));
}

fn ebr(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate_ebr");
    configure(&mut g);

    g.bench_function("pin_unpin", |b| {
        let collector = Collector::new(1);
        let handle = collector.register().unwrap();
        b.iter(|| {
            let guard = handle.pin();
            black_box(&guard);
        });
    });

    g.bench_function("retire_u64", |b| {
        let collector = Collector::new(1);
        let handle = collector.register().unwrap();
        b.iter(|| {
            let guard = handle.pin();
            unsafe { guard.retire(Box::into_raw(Box::new(black_box(7u64)))) };
        });
    });
    g.finish();
}

fn hp(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate_hp");
    configure(&mut g);

    // The HP read-side cost EBR's pin is compared against: publish the
    // pointer, fence, validate (uncontended source).
    g.bench_function("protect_clear", |b| {
        let domain = HpDomain::new(1, 1);
        let handle = domain.register().unwrap();
        let node = Box::into_raw(Box::new(7u64));
        let src = AtomicPtr::new(node);
        b.iter(|| {
            let p = handle.protect(0, &src);
            black_box(p);
            handle.clear(0);
        });
        drop(unsafe { Box::from_raw(node) });
    });

    g.bench_function("retire_u64", |b| {
        let domain = HpDomain::new(1, 1);
        let handle = domain.register().unwrap();
        b.iter(|| {
            unsafe { handle.retire(Box::into_raw(Box::new(black_box(7u64)))) };
        });
    });
    g.finish();
}

fn locks(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate_locks");
    configure(&mut g);

    // Uncontended acquire/release: the baseline cost each combining
    // stack pays per combiner election (Criterion is single-threaded
    // here, so contention is out of scope).
    g.bench_function("mutex", |b| {
        let l = Mutex::new(0u64);
        b.iter(|| {
            *l.lock().unwrap() += 1;
        });
    });
    g.bench_function("ttas", |b| {
        let l = TtasLock::new(0u64);
        b.iter(|| {
            *l.lock() += 1;
        });
    });
    g.finish();
}

fn faa(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate_faa");
    configure(&mut g);

    g.bench_function("hw_fetch_add", |b| {
        let counter = AtomicU64::new(0);
        b.iter(|| black_box(counter.fetch_add(1, Ordering::AcqRel)));
    });
    g.finish();
}

fn clock(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate_clock");
    configure(&mut g);

    g.bench_function("tsc_now", |b| {
        let clock = TscClock::new();
        b.iter(|| black_box(clock.now()));
    });

    g.bench_function("tsc_interval_d32", |b| {
        let clock = TscClock::new();
        b.iter(|| black_box(clock.interval(32)));
    });
    g.finish();
}

criterion_group!(benches, ebr, hp, faa, locks, clock);
criterion_main!(benches);

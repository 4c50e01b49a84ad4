//! A two-stage producer/consumer pipeline: a [`SecStack`] as the hot
//! free-buffer pool (a buffer put back is the next one handed out, so
//! it stays cache-hot), a [`SecQueue`] as the stage-1 → stage-2
//! hand-off (a true FIFO — producers `enqueue`, consumers `dequeue`,
//! batch splices preserve arrival order), and a second [`SecQueue`] as
//! the urgent-items lane, drained before the main queue is consulted.
//!
//! ```text
//! cargo run --release --example pipeline
//! ```
//!
//! [`SecStack`]: sec_repro::SecStack
//! [`SecQueue`]: sec_repro::ext::SecQueue

use sec_repro::ext::SecQueue;
use sec_repro::SecStack;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A work item travelling through the pipeline.
struct Job {
    id: u64,
    urgent: bool,
    payload: u64,
}

fn main() {
    const PRODUCERS: usize = 2;
    const CONSUMERS: usize = 2;
    const JOBS_PER_PRODUCER: usize = 50_000;
    const POOL_BUFFERS: usize = 128;

    let pool: SecStack<Vec<u8>> = SecStack::new(PRODUCERS + CONSUMERS + 1);
    {
        let mut h = pool.register();
        for _ in 0..POOL_BUFFERS {
            h.push(vec![0u8; 1024]);
        }
    }

    let queue: SecQueue<Job> = SecQueue::new(PRODUCERS + CONSUMERS + 1);
    let urgent_lane: SecQueue<Job> = SecQueue::new(PRODUCERS + CONSUMERS + 1);
    let produced_done = AtomicUsize::new(0);
    let consumed = AtomicUsize::new(0);
    let urgent_seen = AtomicUsize::new(0);

    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        // Stage 1: producers draw a buffer from the pool, "fill" it,
        // and enqueue a job. Every 1000th job is urgent and takes the
        // urgent lane, jumping everything queued in stage 2.
        for p in 0..PRODUCERS {
            let queue = &queue;
            let urgent_lane = &urgent_lane;
            let pool = &pool;
            let produced_done = &produced_done;
            scope.spawn(move || {
                let mut q = queue.register();
                let mut u = urgent_lane.register();
                let mut b = pool.register();
                for i in 0..JOBS_PER_PRODUCER {
                    let buf = b.pop().unwrap_or_else(|| vec![0u8; 1024]);
                    let payload = buf.len() as u64; // pretend-work
                    b.push(buf); // recycle immediately (cache-hot)
                    let job = Job {
                        id: (p * JOBS_PER_PRODUCER + i) as u64,
                        urgent: i % 1000 == 0,
                        payload,
                    };
                    if job.urgent {
                        u.enqueue(job);
                    } else {
                        q.enqueue(job);
                    }
                }
                produced_done.fetch_add(1, Ordering::SeqCst);
            });
        }

        // Stage 2: consumers drain the urgent lane first, then the
        // FIFO queue.
        for _ in 0..CONSUMERS {
            let queue = &queue;
            let urgent_lane = &urgent_lane;
            let produced_done = &produced_done;
            let consumed = &consumed;
            let urgent_seen = &urgent_seen;
            scope.spawn(move || {
                let mut q = queue.register();
                let mut u = urgent_lane.register();
                let mut checksum = 0u64;
                let process = |job: Job, checksum: &mut u64| {
                    *checksum = checksum.wrapping_add(job.id ^ job.payload);
                    if job.urgent {
                        urgent_seen.fetch_add(1, Ordering::Relaxed);
                    }
                    consumed.fetch_add(1, Ordering::Relaxed);
                };
                loop {
                    match u.dequeue().or_else(|| q.dequeue()) {
                        Some(job) => process(job, &mut checksum),
                        None => {
                            if produced_done.load(Ordering::SeqCst) == PRODUCERS {
                                // Producers finished; one more look in
                                // case of a late hand-off on either lane.
                                match u.dequeue().or_else(|| q.dequeue()) {
                                    Some(job) => process(job, &mut checksum),
                                    None => break,
                                }
                            } else {
                                std::thread::yield_now();
                            }
                        }
                    }
                }
                checksum
            });
        }
    });
    let elapsed = start.elapsed();

    let total = PRODUCERS * JOBS_PER_PRODUCER;
    let done = consumed.load(Ordering::Relaxed);
    println!(
        "pipeline: {done}/{total} jobs through 2 stages in {:.1?} ({:.2} Mjobs/s)",
        elapsed,
        done as f64 / elapsed.as_secs_f64() / 1e6
    );
    println!(
        "urgent jobs expedited: {} (pool elimination: {:.0}%, queue rendezvous hits: {})",
        urgent_seen.load(Ordering::Relaxed),
        pool.stats().report().pct_eliminated(),
        queue.rendezvous_hits()
    );
    assert_eq!(done, total, "every job must be consumed exactly once");
}

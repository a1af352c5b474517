//! Overflow accounting under concurrency: the observability chain must
//! never lose a record *silently*. A producer thread races a consumer
//! over a deliberately tiny ring; snapshots are exported concurrently
//! throughout; at quiescence every record must be accounted for exactly:
//! pushed = consumed + dropped, and the registry's exported counters
//! must agree with the ring's own books.

use kml_collect::RingBuffer;
use kml_telemetry::Registry;

#[test]
fn ring_overflow_drop_accounting_reconciles_exactly() {
    const PUSHES: u64 = 200_000;
    const CAPACITY: usize = 64; // tiny on purpose: overflow is the test

    let registry = Registry::new();
    let (producer, mut consumer) = RingBuffer::<u64>::with_capacity(CAPACITY).split();
    consumer.attach_telemetry(&registry, "ring");

    let writer = std::thread::spawn(move || {
        for i in 0..PUSHES {
            producer.push(i);
        }
        producer
    });

    // Consume while the producer floods, exporting snapshots as we go:
    // exported consumed_total must be monotone and popped values strictly
    // increasing (the seqlock may drop records, never duplicate or
    // reorder them).
    let mut consumed_here = 0u64;
    let mut last_value: Option<u64> = None;
    let mut last_export = 0u64;
    loop {
        match consumer.pop() {
            Some(v) => {
                if let Some(prev) = last_value {
                    assert!(
                        v > prev,
                        "ring yielded {v} after {prev}: duplicated or reordered"
                    );
                }
                last_value = Some(v);
                consumed_here += 1;
            }
            None => {
                if writer.is_finished() {
                    break;
                }
                std::hint::spin_loop();
            }
        }
        if consumed_here.is_multiple_of(1024) {
            let snap = registry.snapshot();
            let exported = snap.counter("ring.consumed_total").unwrap_or(0);
            assert!(
                exported >= last_export,
                "exported consumed_total went backwards: {last_export} -> {exported}"
            );
            last_export = exported;
        }
    }
    let producer = writer.join().expect("producer thread panicked");
    // Final drain: the producer is done, so pop-until-empty sees the rest.
    while consumer.pop().is_some() {
        consumed_here += 1;
    }

    // Exact reconciliation, no slack: every one of the PUSHES records is
    // either consumed or counted dropped.
    assert_eq!(producer.pushed(), PUSHES);
    assert_eq!(
        consumer.consumed() + consumer.dropped(),
        PUSHES,
        "records unaccounted for: consumed {} + dropped {} != pushed {}",
        consumer.consumed(),
        consumer.dropped(),
        PUSHES
    );
    assert_eq!(consumer.consumed(), consumed_here);
    assert!(
        consumer.dropped() > 0,
        "a {CAPACITY}-slot ring under a {PUSHES}-record flood must overflow"
    );

    // The exported view agrees with the ring's own books.
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("ring.consumed_total"),
        Some(consumer.consumed())
    );
    assert_eq!(snap.gauge("ring.dropped_total"), Some(consumer.dropped()));
    assert_eq!(snap.gauge("ring.occupancy"), Some(0));
}

#[test]
fn snapshot_export_is_exact_under_concurrent_writers() {
    const WRITERS: usize = 8;
    const OPS_PER_WRITER: u64 = 25_000;

    let registry = Registry::new();
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let counter = registry.counter("writers.ops_total");
            let hist = registry.histogram("writers.latency_ns");
            s.spawn(move || {
                for i in 0..OPS_PER_WRITER {
                    counter.inc();
                    hist.record((w as u64) * 1000 + i % 7);
                }
            });
        }
        // Export concurrently: totals may lag but must never exceed the
        // true count or go backwards.
        let mut last = 0u64;
        for _ in 0..100 {
            let snap = registry.snapshot();
            let now = snap.counter("writers.ops_total").unwrap_or(0);
            assert!(now >= last, "exported counter went backwards");
            assert!(
                now <= WRITERS as u64 * OPS_PER_WRITER,
                "exported counter overshot: {now}"
            );
            last = now;
            std::thread::yield_now();
        }
    });

    let snap = registry.snapshot();
    let total = WRITERS as u64 * OPS_PER_WRITER;
    assert_eq!(snap.counter("writers.ops_total"), Some(total));
    let hist = snap
        .histogram("writers.latency_ns")
        .expect("histogram exported");
    assert_eq!(
        hist.count, total,
        "histogram lost records under concurrency"
    );
}

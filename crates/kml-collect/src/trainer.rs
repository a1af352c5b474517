//! The asynchronous training thread (paper §3.2).
//!
//! "KML creates a *training thread* during the model initialization stage
//! ... The only information users need to provide in the
//! model-initialization code is a pointer to the model's training function."
//! [`AsyncTrainer`] is that harness: it owns a KML thread (a kthread in the
//! kernel persona) that drains the lock-free buffer in batches and hands
//! each batch to the user's training callback, keeping FP-heavy work off
//! the collection path.

use crate::ringbuf::Consumer;
use kml_platform::threading::{kml_idle_wait, KmlThread};
use kml_platform::Persona;
use kml_telemetry::Registry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Gauge name for the trainer's input backlog (records waiting in the
/// collection ring), published by [`AsyncTrainer::spawn_with_telemetry`].
pub const TRAINER_BACKLOG_METRIC: &str = "kml.trainer_backlog";
/// Counter name for records lost to ring overwrites before the trainer
/// could drain them, published by [`AsyncTrainer::spawn_with_telemetry`].
pub const TRAINER_DROPPED_METRIC: &str = "kml.trainer_dropped";

/// Counters published by the training thread.
#[derive(Debug, Default)]
struct TrainerStats {
    samples: AtomicU64,
    dropped: AtomicU64,
}

/// Handle to a running asynchronous trainer.
///
/// # Example
///
/// ```
/// use kml_collect::{AsyncTrainer, RingBuffer};
/// use kml_platform::Persona;
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
///
/// let (producer, consumer) = RingBuffer::<f64>::with_capacity(1024).split();
/// let sum = Arc::new(AtomicU64::new(0));
/// let s = sum.clone();
/// let trainer = AsyncTrainer::spawn(Persona::Kernel, consumer, move |batch| {
///     s.fetch_add(batch.len() as u64, Ordering::Relaxed);
/// }).unwrap();
///
/// for i in 0..100 {
///     producer.push(i as f64); // inline hook: wait-free
/// }
/// while trainer.samples_processed() < 100 {
///     std::thread::yield_now();
/// }
/// trainer.stop().unwrap();
/// assert_eq!(sum.load(Ordering::Relaxed), 100);
/// ```
#[derive(Debug)]
pub struct AsyncTrainer {
    thread: KmlThread,
    stats: Arc<TrainerStats>,
}

impl AsyncTrainer {
    /// Maximum records handed to the callback per invocation.
    pub const BATCH: usize = 256;

    /// Spawns the training thread. `train` is the "pointer to the model's
    /// training function" from the paper; it receives drained records in
    /// arrival order.
    ///
    /// # Errors
    ///
    /// Returns a platform error if the thread cannot be spawned.
    pub fn spawn<T, F>(
        persona: Persona,
        consumer: Consumer<T>,
        train: F,
    ) -> kml_platform::Result<Self>
    where
        T: Copy + Send + 'static,
        F: FnMut(&[T]) + Send + 'static,
    {
        Self::spawn_with_telemetry(persona, &Registry::noop(), consumer, train)
    }

    /// Like [`spawn`](Self::spawn), but also publishes the trainer's
    /// health to `registry`: the [`TRAINER_BACKLOG_METRIC`] gauge tracks
    /// how far the producer has run ahead of training (records waiting in
    /// the ring) and the [`TRAINER_DROPPED_METRIC`] counter accumulates
    /// records lost to ring overwrites. Both update once per drain pass
    /// on the training thread — nothing is added to the wait-free
    /// collection hook.
    ///
    /// # Errors
    ///
    /// Returns a platform error if the thread cannot be spawned.
    pub fn spawn_with_telemetry<T, F>(
        persona: Persona,
        registry: &Registry,
        mut consumer: Consumer<T>,
        mut train: F,
    ) -> kml_platform::Result<Self>
    where
        T: Copy + Send + 'static,
        F: FnMut(&[T]) + Send + 'static,
    {
        let backlog_gauge = registry.gauge(TRAINER_BACKLOG_METRIC);
        let dropped_counter = registry.counter(TRAINER_DROPPED_METRIC);
        let stats = Arc::new(TrainerStats::default());
        let thread_stats = stats.clone();
        let thread = KmlThread::spawn(persona, "kml-train", move |ctl| {
            let mut batch = Vec::with_capacity(Self::BATCH);
            let mut reported_dropped = 0u64;
            let mut idle_polls = 0u32;
            loop {
                batch.clear();
                while batch.len() < Self::BATCH {
                    match consumer.pop() {
                        Some(v) => batch.push(v),
                        None => break,
                    }
                }
                backlog_gauge.set(consumer.len_estimate());
                let dropped = consumer.dropped();
                dropped_counter.add(dropped - reported_dropped);
                reported_dropped = dropped;
                if batch.is_empty() {
                    if ctl.should_stop() {
                        break;
                    }
                    kml_idle_wait(&mut idle_polls);
                    continue;
                }
                idle_polls = 0;
                train(&batch);
                thread_stats
                    .samples
                    .fetch_add(batch.len() as u64, Ordering::Relaxed);
                thread_stats.dropped.store(dropped, Ordering::Relaxed);
            }
            backlog_gauge.set(0);
            let dropped = consumer.dropped();
            dropped_counter.add(dropped - reported_dropped);
            thread_stats.dropped.store(dropped, Ordering::Relaxed);
        })?;
        Ok(AsyncTrainer { thread, stats })
    }

    /// Total records delivered to the training callback.
    pub fn samples_processed(&self) -> u64 {
        self.stats.samples.load(Ordering::Relaxed)
    }

    /// Records lost to ring-buffer overwrites, as last observed.
    pub fn samples_dropped(&self) -> u64 {
        self.stats.dropped.load(Ordering::Relaxed)
    }

    /// Drains whatever remains, stops the thread, and joins it.
    ///
    /// # Errors
    ///
    /// Returns a platform error if the training thread panicked.
    pub fn stop(self) -> kml_platform::Result<()> {
        self.thread.stop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ringbuf::RingBuffer;
    use std::sync::Mutex;

    #[test]
    fn trainer_processes_everything_in_order() {
        let (p, c) = RingBuffer::<u32>::with_capacity(4096).split();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        let trainer = AsyncTrainer::spawn(Persona::User, c, move |batch| {
            sink.lock().unwrap().extend_from_slice(batch);
        })
        .unwrap();
        for i in 0..1000u32 {
            p.push(i);
        }
        while trainer.samples_processed() < 1000 {
            std::thread::yield_now();
        }
        trainer.stop().unwrap();
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 1000);
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "order violated");
    }

    #[test]
    fn stop_drains_remaining_records() {
        let (p, c) = RingBuffer::<u32>::with_capacity(64).split();
        let count = Arc::new(AtomicU64::new(0));
        let sink = count.clone();
        let trainer = AsyncTrainer::spawn(Persona::User, c, move |batch| {
            sink.fetch_add(batch.len() as u64, Ordering::Relaxed);
        })
        .unwrap();
        for i in 0..50u32 {
            p.push(i);
        }
        // Stop immediately: the drain-on-stop path must still deliver all 50.
        trainer.stop().unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn overflow_is_reported_not_hidden() {
        let (p, c) = RingBuffer::<u64>::with_capacity(8).split();
        // Producer sprints far ahead before the trainer starts draining.
        for i in 0..10_000u64 {
            p.push(i);
        }
        let trainer = AsyncTrainer::spawn(Persona::User, c, |_batch| {}).unwrap();
        while trainer.samples_processed() + trainer.samples_dropped() < 10_000 {
            std::thread::yield_now();
        }
        let dropped = trainer.samples_dropped();
        trainer.stop().unwrap();
        assert!(dropped >= 10_000 - 8, "dropped only {dropped}");
    }

    #[test]
    fn telemetry_reports_backlog_and_drops() {
        let registry = Registry::new();
        let (p, c) = RingBuffer::<u64>::with_capacity(8).split();
        // Overflow before the trainer exists: the ring overwrites, and the
        // trainer must surface the loss through the registry.
        for i in 0..100u64 {
            p.push(i);
        }
        let trainer =
            AsyncTrainer::spawn_with_telemetry(Persona::User, &registry, c, |_batch| {}).unwrap();
        while trainer.samples_processed() + trainer.samples_dropped() < 100 {
            std::thread::yield_now();
        }
        trainer.stop().unwrap();
        let dropped = registry.counter(TRAINER_DROPPED_METRIC).get();
        assert!(dropped >= 100 - 8, "dropped counter reads {dropped}");
        assert_eq!(
            registry.gauge(TRAINER_BACKLOG_METRIC).get(),
            0,
            "backlog gauge must read empty after stop"
        );
    }

    #[test]
    fn batch_size_is_capped() {
        let (p, c) = RingBuffer::<u8>::with_capacity(4096).split();
        let max_batch = Arc::new(AtomicU64::new(0));
        let sink = max_batch.clone();
        for _ in 0..2000 {
            p.push(1);
        }
        let trainer = AsyncTrainer::spawn(Persona::User, c, move |batch| {
            sink.fetch_max(batch.len() as u64, Ordering::Relaxed);
        })
        .unwrap();
        while trainer.samples_processed() < 2000 {
            std::thread::yield_now();
        }
        trainer.stop().unwrap();
        assert!(max_batch.load(Ordering::Relaxed) <= AsyncTrainer::BATCH as u64);
    }
}

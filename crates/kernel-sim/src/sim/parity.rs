//! The per-page read path, kept as a reference.
//!
//! Until device runs became the unit [`Sim`] and the page cache exchange,
//! `read_inner` hashed, promoted and fed to the readahead state machine
//! every page it touched, and `fetch` inserted a run one page at a time,
//! carrying each victim back across the call. The run path now touches the
//! resident pages before the readahead marker as one run, and moves a
//! segment of them to the LRU head in one splice. The per-page code lives
//! on here, unchanged but for its names, and a differential proptest
//! drives it beside the run path through every operation that reaches a
//! fetch or moves the pages under one: the two must agree on every result,
//! on the clock, on every counter and on the trace ring record for record.

use super::*;
use crate::fault::{FaultConfig, FaultPlan};
use kml_collect::ringbuf::Consumer;
use kml_collect::RingBuffer;
use proptest::prelude::*;

impl Sim {
    fn read_per_page(&mut self, f: FileId, page: u64, npages: u64) -> IoResult<u64> {
        let mut cost = 0;
        let res = self.read_inner_per_page(f, page, npages, &mut cost);
        self.clock_ns += cost;
        res.map(|()| cost)
    }

    fn read_inner_per_page(
        &mut self,
        f: FileId,
        page: u64,
        npages: u64,
        cost: &mut u64,
    ) -> IoResult<()> {
        self.logical_reads += 1;
        self.apply_pressure(cost)?;
        let file_pages = self.files[f.0].pages;
        let end = (page + npages).min(file_pages);
        for p in page..end {
            let inode = self.files[f.0].inode;
            let cached = self.cache.touch_hashed((inode, p));
            if cached {
                self.telemetry.cache_hits.inc();
            } else {
                self.telemetry.cache_misses.inc();
            }
            let action = self.files[f.0].ra.on_access(p, npages, cached, file_pages);
            let fetched = match action {
                RaAction::None => false,
                RaAction::Sync { start, len } | RaAction::Async { start, len } => {
                    self.fetch_per_page(f, start, len, p, cost)?
                }
            };
            if !cached && !fetched {
                self.fetch_per_page(f, p, 1, p, cost)?;
            }
            *cost += self.cfg.cache_hit_ns;
        }
        Ok(())
    }

    fn fetch_per_page(
        &mut self,
        f: FileId,
        start: u64,
        len: u64,
        demand: u64,
        cost: &mut u64,
    ) -> IoResult<bool> {
        let inode = self.files[f.0].inode;
        let file_pages = self.files[f.0].pages;
        let end = (start + len).min(file_pages);
        let mut run_start: Option<u64> = None;
        let mut run_len = 0;
        let mut demand_resident = false;
        for p in start..=end {
            let uncached = p < end && !self.cache.contains((inode, p));
            if uncached {
                if run_start.is_none() {
                    run_start = Some(p);
                    run_len = 0;
                }
                run_len += 1;
            } else if let Some(rs) = run_start.take() {
                let service_ns = match self.device.read(inode, rs, run_len) {
                    Ok(ns) => ns,
                    Err(e) => {
                        *cost += e.ns;
                        return Err(e);
                    }
                };
                self.telemetry.read_latency_ns.record(service_ns);
                self.telemetry
                    .read_request_bytes
                    .record(run_len * crate::PAGE_SIZE);
                *cost += service_ns;
                for q in rs..rs + run_len {
                    let victim = self.cache.insert((inode, q), q != demand).victim();
                    if q == demand {
                        demand_resident = true;
                    } else if victim.is_some_and(|(key, _)| key == (inode, demand)) {
                        demand_resident = false;
                    }
                    self.flush_victim(victim, cost)?;
                    self.emit(TraceKind::AddToPageCache, inode, q);
                }
                run_len = 0;
            }
        }
        Ok(demand_resident)
    }

    /// [`Sim::fadvise`] with `WillNeed`'s prefetch on the per-page fetch.
    fn fadvise_per_page(&mut self, f: FileId, advice: Advice) -> IoResult<u64> {
        let Advice::WillNeed { page, npages } = advice else {
            return self.fadvise(f, advice);
        };
        let mut cost = 0;
        let end = (page + npages).min(self.files[f.0].pages);
        let res = if end > page {
            self.fetch_per_page(f, page, end - page, u64::MAX, &mut cost)
        } else {
            Ok(false)
        };
        self.clock_ns += cost;
        res.map(|_| cost)
    }
}

/// One simulator of the pair, with the consumer end of its trace ring.
fn traced_sim(cache_pages: usize, files: &[u64], plan: Option<FaultPlan>) -> Stack {
    let mut sim = Sim::new(SimConfig {
        device: DeviceProfile::sata_ssd(),
        cache_pages,
        writeback_batch: 4,
        ..SimConfig::default()
    });
    let (producer, ring) = RingBuffer::with_capacity(1 << 16).split();
    sim.attach_trace(producer);
    let files = files.iter().map(|&pages| sim.create_file(pages)).collect();
    sim.set_fault_plan(plan);
    Stack { sim, ring, files }
}

struct Stack {
    sim: Sim,
    ring: Consumer<TraceRecord>,
    files: Vec<FileId>,
}

/// Everything but the operation's own result that the two paths must share.
#[derive(Debug, PartialEq)]
struct Observed {
    clock_ns: u64,
    stats: SimStats,
    faults: FaultStats,
    resident: (usize, usize, usize),
    dropped: u64,
    records: Vec<TraceRecord>,
}

impl Stack {
    fn observe(&mut self) -> Observed {
        Observed {
            clock_ns: self.sim.now_ns(),
            stats: self.sim.stats(),
            faults: self.sim.fault_stats(),
            resident: (
                self.sim.cache_len(),
                self.sim.cache_dirty(),
                self.sim.cache_capacity(),
            ),
            dropped: self.ring.dropped(),
            records: self.ring.drain().collect(),
        }
    }
}

/// Readahead caps the operations choose from, KiB: one page up to 256 of
/// them, against caches of at most 64.
const RA_KB: [u32; 7] = [4, 8, 32, 128, 256, 512, 1024];

fn fault_plan(mode: u8, seed: u64) -> Option<FaultPlan> {
    let cfg = match mode {
        0 | 1 => return None,
        2 => FaultConfig {
            seed,
            read_error: 0.05,
            write_error: 0.1,
            torn_write: 0.1,
            ..FaultConfig::off()
        },
        3 => FaultConfig {
            seed,
            cache_squeeze: 0.1,
            squeeze_frac: 0.3,
            squeeze_ops: 3,
            ..FaultConfig::off()
        },
        _ => FaultConfig {
            cache_squeeze: 0.05,
            squeeze_ops: 4,
            write_error: 0.05,
            ..FaultConfig::light(seed)
        },
    };
    Some(FaultPlan::new(cfg))
}

proptest! {
    /// The run path against the per-page reference, operation by operation.
    #[test]
    fn run_path_matches_the_per_page_reference(
        cache_pages in 1usize..=64,
        sizes in proptest::collection::vec(1u64..400, 1..4),
        fault in (0u8..5, 0u64..1 << 32),
        ops in proptest::collection::vec((0u8..20, 0usize..3, 0u64..400, 1u64..48, 0usize..7), 1..120),
    ) {
        let mut run = traced_sim(cache_pages, &sizes, fault_plan(fault.0, fault.1));
        let mut per_page = traced_sim(cache_pages, &sizes, fault_plan(fault.0, fault.1));
        for (op, file, page, n, kb) in ops {
            let f = run.files[file % sizes.len()];
            let (page, kb) = (page % (sizes[file % sizes.len()] + 8), RA_KB[kb]);
            let advice = match op {
                9 => Some(Advice::Sequential),
                10 => Some(Advice::Random),
                11 => Some(Advice::Normal),
                12 | 13 => Some(Advice::WillNeed { page, npages: n * 3 }),
                14 | 15 => Some(Advice::DontNeed { page, npages: n }),
                _ => None,
            };
            let (got, want) = match op {
                0..=4 => (run.sim.read(f, page, n), per_page.sim.read_per_page(f, page, n)),
                5 => (run.sim.mmap_read(f, page), per_page.sim.read_per_page(f, page, 1)),
                6..=8 => (run.sim.write(f, page, n), per_page.sim.write(f, page, n)),
                9..=15 => {
                    let advice = advice.expect("9..=15 are the hints");
                    (run.sim.fadvise(f, advice), per_page.sim.fadvise_per_page(f, advice))
                }
                16 => {
                    run.sim.set_ra_kb(kb);
                    per_page.sim.set_ra_kb(kb);
                    (Ok(0), Ok(0))
                }
                17 => {
                    run.sim.set_file_ra_kb(f, kb);
                    per_page.sim.set_file_ra_kb(f, kb);
                    (Ok(0), Ok(0))
                }
                18 => (run.sim.sync().map(|()| 0), per_page.sim.sync().map(|()| 0)),
                _ => (run.sim.drop_caches().map(|()| 0), per_page.sim.drop_caches().map(|()| 0)),
            };
            prop_assert_eq!(got, want, "op {} file {} page {} n {}", op, file, page, n);
            prop_assert_eq!(run.observe(), per_page.observe(), "after op {}", op);
        }
    }
}

/// Misses and device pages one single-page read added to the counters.
fn cold_reads(sim: &mut Sim, f: FileId, page: u64) -> (u64, u64) {
    let before = sim.stats();
    sim.read(f, page, 1).unwrap();
    let after = sim.stats();
    assert_eq!(after.cache.hits, before.cache.hits);
    (
        after.cache.misses - before.cache.misses,
        after.device.pages_read - before.device.pages_read,
    )
}

#[test]
fn a_dropped_page_right_behind_the_finger_reads_cold() {
    let mut s = traced_sim(64, &[64], None);
    let f = s.files[0];
    s.sim.read(f, 0, 32).unwrap(); // page i sits in slab slot i
    s.sim.read(f, 0, 8).unwrap(); // the finger rests on slot 7
    let (page, npages) = (8, 8);
    s.sim.fadvise(f, Advice::DontNeed { page, npages }).unwrap();
    s.sim.set_file_ra_kb(f, 4);
    // Slot 8 is free and still holds page 8's key.
    assert_eq!(cold_reads(&mut s.sim, f, 8), (1, 1));
}

#[test]
fn a_squeezed_out_page_right_behind_the_finger_reads_cold() {
    let squeeze = FaultConfig {
        seed: 1,
        cache_squeeze: 1.0,
        squeeze_frac: 0.25,
        squeeze_ops: 8,
        ..FaultConfig::off()
    };
    let mut s = traced_sim(64, &[64], None);
    let f = s.files[0];
    s.sim.read(f, 0, 64).unwrap(); // page i sits in slab slot i
    s.sim.read(f, 10, 1).unwrap(); // the finger rests on slot 10, now MRU
    s.sim.set_file_ra_kb(f, 4);
    s.sim.set_fault_plan(Some(FaultPlan::new(squeeze)));
    // The read squeezes the cache to 16 pages before it looks: slot 11 is
    // among the 48 freed, page 11's key still in it.
    assert_eq!(cold_reads(&mut s.sim, f, 11), (1, 1));
    assert_eq!(s.sim.cache_capacity(), 16);
}

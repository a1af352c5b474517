//! Linux-style on-demand readahead state machine.
//!
//! A per-file reimplementation (in shape) of `mm/readahead.c`'s on-demand
//! algorithm — the very heuristic the paper's neural network re-tunes:
//!
//! - A **miss** that continues the previous access (`page == prev + 1`)
//!   counts as sequential: the window doubles, capped at `ra_pages`.
//! - Any other miss gets the **initial window**, which per
//!   `get_init_ra_size` grows with *both* the request size and `ra_pages`:
//!   this is why an over-sized `ra_pages` makes random block reads fetch
//!   far more than they use, and why tuning it down speeds random
//!   workloads up (the paper's readrandom rows).
//! - A sync window plants a **marker** right after the requested region
//!   (`async_size = size − req_size` in Linux terms); a later *hit* on the
//!   marker triggers asynchronous readahead of the next, doubled window,
//!   whose marker sits at its own start — keeping a sequential stream one
//!   window ahead without ever punishing isolated block reads.
//!
//! `ra_pages` is the knob the KML application actuates ("changes readahead
//! sizes using block device layer ioctls and updates the readahead values
//! in struct files", §3.3).

/// Decision produced by the state machine for one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaAction {
    /// Nothing to fetch (cache hit off-marker, or beyond EOF).
    None,
    /// Fetch `[start, start + len)` before serving the access.
    Sync {
        /// First page to fetch.
        start: u64,
        /// Pages to fetch.
        len: u64,
    },
    /// Fetch `[start, start + len)` asynchronously (marker hit).
    Async {
        /// First page to fetch.
        start: u64,
        /// Pages to fetch.
        len: u64,
    },
}

/// Per-file readahead state (`struct file_ra_state` analogue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaState {
    /// Maximum window in pages (the tunable).
    ra_pages: u64,
    /// Last page accessed (hit or miss).
    prev_page: Option<u64>,
    /// Current window size in pages.
    window: u64,
    /// Marker page that triggers async readahead when hit.
    marker: Option<u64>,
    /// End of the last fetched region (next fetch start for async chains).
    window_end: u64,
}

/// Initial readahead window, following the shape of Linux's
/// `get_init_ra_size(req_size, max)`.
fn init_window(req: u64, max: u64) -> u64 {
    let size = req.max(1).next_power_of_two();
    let grown = if size <= max / 32 {
        size * 4
    } else if size <= max / 4 {
        size * 2
    } else {
        size
    };
    grown.clamp(1, max)
}

impl RaState {
    /// Creates state with the given maximum window (pages).
    pub fn new(ra_pages: u64) -> Self {
        RaState {
            ra_pages: ra_pages.max(1),
            prev_page: None,
            window: 0,
            marker: None,
            window_end: 0,
        }
    }

    /// The current maximum window in pages.
    pub fn ra_pages(&self) -> u64 {
        self.ra_pages
    }

    /// Retunes the maximum window (the KML actuation point). Shrinks the
    /// active window immediately if the new cap is below it.
    pub fn set_ra_pages(&mut self, ra_pages: u64) {
        self.ra_pages = ra_pages.max(1);
        self.window = self.window.min(self.ra_pages);
    }

    /// End of the quiet stretch of `from..end`: the marker if it lies in
    /// it, else `end`. A resident page before it is a hit that
    /// [`RaState::on_access`] answers with [`RaAction::None`], recording
    /// only the page — the marker is the one resident page whose hit acts.
    pub fn quiet_until(&self, from: u64, end: u64) -> u64 {
        self.marker
            .filter(|m| (from..end).contains(m))
            .unwrap_or(end)
    }

    /// Records a run of resident pages ending at `last` that lie before
    /// [`RaState::quiet_until`]: the state `on_access(.., cached = true)`
    /// on each of them in turn would leave.
    pub fn quiet_hits(&mut self, last: u64) {
        self.prev_page = Some(last);
    }

    /// Feeds one page access through the state machine.
    ///
    /// - `page`: the page being accessed.
    /// - `req_len`: length in pages of the enclosing logical request (a
    ///   RocksDB block read spans several pages; Linux sizes the initial
    ///   window from it).
    /// - `cached`: whether the page is already resident.
    /// - `file_pages`: file size; fetches clamp to it.
    pub fn on_access(
        &mut self,
        page: u64,
        req_len: u64,
        cached: bool,
        file_pages: u64,
    ) -> RaAction {
        let action = if cached {
            if self.marker == Some(page) {
                // Async readahead: next window, doubled, one ahead.
                self.window = (self.window * 2).clamp(1, self.ra_pages);
                let start = self.window_end.max(page + 1);
                let len = self.window.min(file_pages.saturating_sub(start));
                self.marker = None;
                if len == 0 {
                    RaAction::None
                } else {
                    self.window_end = start + len;
                    // Async windows carry their marker at their own start, so
                    // a stream that reaches them immediately chains the next.
                    self.marker = Some(start);
                    RaAction::Async { start, len }
                }
            } else {
                RaAction::None
            }
        } else {
            let sequential = self.prev_page.is_some_and(|p| page == p + 1);
            self.window = if sequential && self.window > 0 {
                (self.window * 2).clamp(1, self.ra_pages)
            } else {
                init_window(req_len, self.ra_pages)
            };
            // The demanded request always fetches whole: `ra_pages` caps the
            // *speculative* extent, not the application's own read (Linux
            // issues one bio for the requested range even under FADV_RANDOM).
            let len = self
                .window
                .max(req_len)
                .min(file_pages.saturating_sub(page));
            if len == 0 {
                self.prev_page = Some(page);
                return RaAction::None;
            }
            self.window_end = page + len;
            // Marker right after the requested region — untouched by an
            // isolated block read, hit by the next sequential request.
            self.marker = (req_len < len).then_some(page + req_len);
            RaAction::Sync { start: page, len }
        };
        self.prev_page = Some(page);
        action
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const FILE: u64 = 1 << 30; // effectively unbounded

    #[test]
    fn init_window_matches_linux_shape() {
        // One-page request: 4 pages once max is large enough.
        assert_eq!(init_window(1, 256), 4);
        assert_eq!(init_window(1, 32), 4);
        assert_eq!(init_window(1, 2), 1);
        // Four-page request (a 16 KiB block read): scales with max.
        assert_eq!(init_window(4, 256), 16);
        assert_eq!(init_window(4, 32), 8);
        assert_eq!(init_window(4, 4), 4);
        assert_eq!(init_window(4, 2), 2);
    }

    #[test]
    fn cold_one_page_miss_fetches_initial_window() {
        let mut ra = RaState::new(32);
        let action = ra.on_access(100, 1, false, FILE);
        assert_eq!(action, RaAction::Sync { start: 100, len: 4 });
    }

    #[test]
    fn sequential_misses_double_the_window_up_to_cap() {
        let mut ra = RaState::new(32);
        // Defeat the marker (req_len == window) so every access is a miss.
        let mut page = 0;
        let mut lens = Vec::new();
        for _ in 0..5 {
            match ra.on_access(page, 1, false, FILE) {
                RaAction::Sync { len, .. } => {
                    lens.push(len);
                    page += 1;
                }
                other => panic!("expected sync fetch, got {other:?}"),
            }
        }
        assert_eq!(lens, vec![4, 8, 16, 32, 32]);
    }

    #[test]
    fn random_block_reads_fetch_init_window_scaled_by_ra_pages() {
        // A 4-page block read under a huge ra_pages drags in 16 pages...
        let mut big = RaState::new(256);
        assert_eq!(
            big.on_access(5000, 4, false, FILE),
            RaAction::Sync {
                start: 5000,
                len: 16
            }
        );
        // ...but under a tight ra_pages only 4.
        let mut small = RaState::new(4);
        assert_eq!(
            small.on_access(5000, 4, false, FILE),
            RaAction::Sync {
                start: 5000,
                len: 4
            }
        );
    }

    #[test]
    fn isolated_block_read_never_touches_its_marker() {
        let mut ra = RaState::new(256);
        // Block read of pages 100..104: sync fetch 16, marker at 104.
        assert_eq!(
            ra.on_access(100, 4, false, FILE),
            RaAction::Sync {
                start: 100,
                len: 16
            }
        );
        for p in 101..104 {
            assert_eq!(ra.on_access(p, 4, true, FILE), RaAction::None);
        }
    }

    #[test]
    fn stream_hits_marker_and_chains_async_windows() {
        let mut ra = RaState::new(64);
        // First request [0,4): init window 8 (= 2×req under this cap),
        // marker at 4.
        assert_eq!(
            ra.on_access(0, 4, false, FILE),
            RaAction::Sync { start: 0, len: 8 }
        );
        for p in 1..4 {
            assert_eq!(ra.on_access(p, 4, true, FILE), RaAction::None);
        }
        // Second request starts at 4 — the marker — and pulls the next
        // (doubled) window starting where the last fetch ended.
        let action = ra.on_access(4, 4, true, FILE);
        assert_eq!(action, RaAction::Async { start: 8, len: 16 });
        // The async window's marker sits at its start (page 8): reaching it
        // chains the next window.
        for p in 5..8 {
            assert_eq!(ra.on_access(p, 4, true, FILE), RaAction::None);
        }
        let action = ra.on_access(8, 4, true, FILE);
        assert_eq!(action, RaAction::Async { start: 24, len: 32 });
    }

    #[test]
    fn fetches_clamp_at_eof() {
        let mut ra = RaState::new(32);
        assert_eq!(
            ra.on_access(10, 1, false, 12),
            RaAction::Sync { start: 10, len: 2 }
        );
        assert_eq!(ra.on_access(12, 1, false, 12), RaAction::None);
    }

    #[test]
    fn retuning_shrinks_active_window() {
        let mut ra = RaState::new(64);
        for page in 0..6 {
            ra.on_access(page, 1, false, FILE);
        }
        ra.set_ra_pages(8);
        assert_eq!(ra.ra_pages(), 8);
        let mut max_len = 0;
        for page in 6..30 {
            if let RaAction::Sync { len, .. } = ra.on_access(page, 1, false, FILE) {
                max_len = max_len.max(len);
            }
        }
        assert!(max_len <= 8, "window {max_len} exceeded retuned cap");
    }

    proptest! {
        /// A run of hits through `quiet_until` / `quiet_hits` plus
        /// `on_access` at the marker leaves the state, and fetches, that
        /// `on_access(.., cached = true)` on every page does.
        #[test]
        fn quiet_hits_match_per_page_hits(
            ops in proptest::collection::vec((0u8..4, 0u64..72, 1u64..24, 1u64..64), 1..200),
        ) {
            const EOF: u64 = 64;
            let (mut per_page, mut quiet) = (RaState::new(32), RaState::new(32));
            for (op, page, n, cap) in ops {
                match op {
                    0 | 1 => {
                        let cached = op == 1;
                        let want = per_page.on_access(page, n, cached, EOF);
                        prop_assert_eq!(quiet.on_access(page, n, cached, EOF), want);
                    }
                    2 => {
                        per_page.set_ra_pages(cap);
                        quiet.set_ra_pages(cap);
                    }
                    _ => {
                        let end = page + n;
                        let want: Vec<_> = (page..end)
                            .map(|p| (p, per_page.on_access(p, n, true, EOF)))
                            .filter(|&(_, action)| action != RaAction::None)
                            .collect();
                        let (mut got, mut p) = (Vec::new(), page);
                        while p < end {
                            let until = quiet.quiet_until(p, end);
                            if until > p {
                                quiet.quiet_hits(until - 1);
                                p = until;
                                continue;
                            }
                            let action = quiet.on_access(p, n, true, EOF);
                            if action != RaAction::None {
                                got.push((p, action));
                            }
                            p += 1;
                        }
                        prop_assert_eq!(got, want);
                    }
                }
                prop_assert_eq!(quiet, per_page);
            }
        }
    }

    #[test]
    fn full_stream_stays_ahead_of_reader() {
        let mut ra = RaState::new(32);
        let mut resident = std::collections::HashSet::new();
        let mut fetches = 0;
        let mut misses = 0;
        for page in 0..1000u64 {
            let cached = resident.contains(&page);
            if !cached {
                misses += 1;
            }
            match ra.on_access(page, 1, cached, FILE) {
                RaAction::None => {}
                RaAction::Sync { start, len } | RaAction::Async { start, len } => {
                    fetches += 1;
                    for p in start..start + len {
                        resident.insert(p);
                    }
                }
            }
        }
        // After warm-up the stream is served by chained async windows:
        // very few misses and roughly pages/window fetches.
        assert!(misses <= 3, "stream missed {misses} times");
        assert!(fetches <= 1000 / 32 + 8, "too many fetches: {fetches}");
    }
}

//! The commit lane: group commit for the write-ahead log.
//!
//! Appends from many tenants interleave on one [`LogWriter`]; syncs
//! are **coalesced** — when several frames are waiting for durability,
//! one `fsync` covers them all:
//!
//! * [`CommitLane::append_frame`] takes the lane mutex just long
//!   enough to write the frame's bytes and assign its sequence number.
//!   No fsync happens here, so concurrent appenders queue behind a
//!   memcpy, not a disk flush.
//! * [`CommitLane::wait_durable`] blocks until the frame's sequence is
//!   covered by a sync. The first waiter to find no sync in flight
//!   becomes the **leader**: it optionally sleeps the configured
//!   commit window (letting more appends pile in), notes the log's
//!   current tail as its target, and fsyncs a *cloned* file handle
//!   **outside** the lane mutex — appenders are never blocked by the
//!   flush. Everyone whose sequence the target covers is released by
//!   one notify; latecomers either ride the next leader or find their
//!   sequence already durable ("sync absorption").
//!
//! Even with a zero window the lane coalesces under concurrency: while
//! the leader is inside `fsync`, new appends land and their waiters
//! park as followers; the *next* leader's target covers all of them
//! with a single flush. The window only trades a bounded latency for a
//! higher coalesce ratio at low concurrency.
//!
//! An fsync failure releases the cohort with an error to the leader;
//! followers re-elect and retry, so one transient failure never
//! strands waiters. A frame is acknowledged durable **only** after a
//! successful sync whose target covers it.

use crate::error::DurableError;
use crate::log::LogWriter;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;
use sv_relation::Value;

/// Counters exposed by the lane, for benchmarks and gates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Frames appended to the log through the lane.
    pub frames: u64,
    /// Successful `fsync` calls issued by leaders.
    pub fsyncs: u64,
    /// Frames made durable by a sync they did not lead: the invariant
    /// `frames_synced == fsyncs + coalesced` always holds, so a
    /// coalesce ratio of `frames / fsyncs` is exact, not sampled.
    pub coalesced: u64,
    /// Frames covered by a successful sync so far.
    pub frames_synced: u64,
}

struct LaneInner {
    log: LogWriter,
    /// Highest sequence covered by a successful sync.
    durable_seq: u64,
    /// Whether a leader currently holds the sync duty.
    syncing: bool,
    /// Frames appended since the last successful sync target capture.
    pending_frames: u64,
    stats: LaneStats,
}

/// A [`LogWriter`] behind a mutex + condvar implementing leader/
/// follower group commit. See the module docs for the protocol.
pub struct CommitLane {
    inner: Mutex<LaneInner>,
    synced: Condvar,
    /// Commit window in nanoseconds: how long a leader waits for more
    /// appends before capturing its sync target. Zero = sync eagerly.
    window_nanos: AtomicU64,
}

impl CommitLane {
    /// Wraps a log writer with a zero commit window. Records the
    /// writer already holds (a recovered log) count as durable — they
    /// were read back from stable storage.
    #[must_use]
    pub fn new(log: LogWriter) -> Self {
        let durable_seq = log.last_seq();
        Self {
            inner: Mutex::new(LaneInner {
                log,
                durable_seq,
                syncing: false,
                pending_frames: 0,
                stats: LaneStats::default(),
            }),
            synced: Condvar::new(),
            window_nanos: AtomicU64::new(0),
        }
    }

    /// Sets the commit window: a leader waits up to this long for more
    /// appends to join its sync. Zero (the default) syncs eagerly —
    /// coalescing then comes only from syncs already in flight.
    pub fn set_window(&self, window: Duration) {
        let nanos = u64::try_from(window.as_nanos()).unwrap_or(u64::MAX);
        self.window_nanos.store(nanos, Ordering::Relaxed);
    }

    /// The configured commit window.
    #[must_use]
    pub fn window(&self) -> Duration {
        Duration::from_nanos(self.window_nanos.load(Ordering::Relaxed))
    }

    fn lock(&self) -> MutexGuard<'_, LaneInner> {
        self.inner.lock().expect("commit lane poisoned")
    }

    /// Appends one ingest frame (no sync), returning its sequence
    /// number. The caller owns ordering above this lane: per-tenant
    /// frame order is set by the tenant store's writer lock, held
    /// across this call; the lane only interleaves *across* tenants.
    ///
    /// # Errors
    /// IO failures; [`DurableError::RecordTooLarge`].
    pub fn append_frame(&self, tenant: u64, rows: &[Vec<Value>]) -> Result<u64, DurableError> {
        let mut g = self.lock();
        let seq = g.log.append_frame(tenant, rows)?;
        g.pending_frames += 1;
        g.stats.frames += 1;
        Ok(seq)
    }

    /// Blocks until `seq` is covered by a successful sync, returning
    /// the covering durable sequence (`>= seq`). `seq == 0` asks for
    /// "whatever is durable now" and never syncs.
    ///
    /// # Errors
    /// IO failures from the fsync this caller led. Followers of a
    /// failed sync re-elect a leader and retry rather than erroring.
    pub fn wait_durable(&self, seq: u64) -> Result<u64, DurableError> {
        let mut g = self.lock();
        loop {
            if g.durable_seq >= seq {
                return Ok(g.durable_seq);
            }
            if g.syncing {
                // Follower: a leader's fsync is in flight. Park; its
                // target may already cover us.
                g = self.synced.wait(g).expect("commit lane poisoned");
                continue;
            }
            // Leader: optionally hold the door open, then flush.
            g.syncing = true;
            let window = self.window();
            if !window.is_zero() {
                // A timed park with the lock released — appenders keep
                // landing frames meanwhile. Spurious wakeups only
                // shorten the window, never break correctness.
                let (g2, _) = self
                    .synced
                    .wait_timeout(g, window)
                    .expect("commit lane poisoned");
                g = g2;
            }
            let target = g.log.last_seq();
            let batch = std::mem::take(&mut g.pending_frames);
            let file = match g.log.clone_handle() {
                Ok(f) => f,
                Err(e) => {
                    g.syncing = false;
                    g.pending_frames = batch;
                    self.synced.notify_all();
                    return Err(e);
                }
            };
            drop(g);
            // The flush itself: no lane lock held, so appends proceed.
            let flushed = file.sync_data();
            g = self.lock();
            g.syncing = false;
            match flushed {
                Ok(()) => {
                    g.durable_seq = g.durable_seq.max(target);
                    g.stats.fsyncs += 1;
                    g.stats.frames_synced += batch;
                    g.stats.coalesced += batch.saturating_sub(1);
                    self.synced.notify_all();
                    // Loop: our own append preceded this sync, so the
                    // target covers `seq` and the next pass returns.
                }
                Err(e) => {
                    g.pending_frames += batch;
                    self.synced.notify_all();
                    return Err(DurableError::io("group commit fsync", g.log.path(), &e));
                }
            }
        }
    }

    /// Lane counters (frames, fsyncs, coalesced).
    #[must_use]
    pub fn stats(&self) -> LaneStats {
        self.lock().stats
    }

    /// Highest sequence covered by a successful sync.
    #[must_use]
    pub fn durable_seq(&self) -> u64 {
        self.lock().durable_seq
    }

    /// Runs `f` with exclusive access to the underlying log writer —
    /// the registry's control plane (snapshot anchors, compaction
    /// rewrites) goes through here. Callers must not assume anything
    /// about sync state; ingest must be quiesced (the registry's
    /// control lock) before rewriting.
    pub fn with_log<R>(&self, f: impl FnOnce(&mut LogWriter) -> R) -> R {
        f(&mut self.lock().log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn tmp_lane(tag: &str) -> (CommitLane, PathBuf) {
        let dir = std::env::temp_dir().join(format!("sv-lane-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let log = LogWriter::create(&dir.join("wal.log")).unwrap();
        (CommitLane::new(log), dir)
    }

    #[test]
    fn pipelined_appends_share_one_fsync() {
        let (lane, dir) = tmp_lane("pipeline");
        let mut last = 0;
        for i in 0..16 {
            last = lane.append_frame(1, &[vec![i, 1]]).unwrap();
        }
        let durable = lane.wait_durable(last).unwrap();
        assert!(durable >= last);
        let stats = lane.stats();
        assert_eq!(stats.frames, 16);
        assert_eq!(stats.fsyncs, 1, "one flush covers the whole pipeline");
        assert_eq!(stats.coalesced, 15);
        assert_eq!(stats.frames_synced, stats.fsyncs + stats.coalesced);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn per_frame_waits_cost_one_fsync_each() {
        let (lane, dir) = tmp_lane("perframe");
        for i in 0..8 {
            let seq = lane.append_frame(1, &[vec![i, 0]]).unwrap();
            lane.wait_durable(seq).unwrap();
        }
        let stats = lane.stats();
        assert_eq!(stats.frames, 8);
        assert_eq!(stats.fsyncs, 8, "serial waiters cannot coalesce");
        assert_eq!(stats.coalesced, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn absorbed_waiters_do_not_resync() {
        let (lane, dir) = tmp_lane("absorb");
        let a = lane.append_frame(1, &[vec![1]]).unwrap();
        let b = lane.append_frame(2, &[vec![2]]).unwrap();
        lane.wait_durable(b).unwrap();
        let before = lane.stats().fsyncs;
        // `a` was covered by `b`'s sync: no new flush.
        lane.wait_durable(a).unwrap();
        assert_eq!(lane.stats().fsyncs, before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_waiters_all_release_and_identity_holds() {
        let (lane, dir) = tmp_lane("conc");
        let lane = Arc::new(lane);
        lane.set_window(Duration::from_millis(1));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let lane = Arc::clone(&lane);
                s.spawn(move || {
                    for i in 0..32 {
                        let seq = lane
                            .append_frame(t, &[vec![u32::try_from(i).unwrap(), 1]])
                            .unwrap();
                        let durable = lane.wait_durable(seq).unwrap();
                        assert!(durable >= seq);
                    }
                });
            }
        });
        let stats = lane.stats();
        assert_eq!(stats.frames, 8 * 32);
        assert_eq!(stats.frames_synced, stats.frames, "every frame acked");
        assert_eq!(
            stats.frames_synced,
            stats.fsyncs + stats.coalesced,
            "coalesce accounting is exact"
        );
        assert!(stats.fsyncs <= stats.frames);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

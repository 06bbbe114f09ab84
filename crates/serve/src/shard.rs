//! The engine shards and the executors that run their jobs.
//!
//! One [`EvalEngine`] behind one bounded queue serializes every
//! preparation-cache lookup and admission decision. The pool splits
//! the engine into N independent shards — each with its own bounded
//! prep cache and bound on waiting jobs — and routes requests by
//! **prep-key affinity**:
//!
//! * A request with a preparation key (everything except `solve`) is
//!   routed to shard `content_hash(key) % N`, so every request for the
//!   same dataset preparation lands on the same shard and PrepCache
//!   locality survives sharding. Eviction pressure on one shard can
//!   never evict another shard's entries.
//! * A request with no preparation key (`solve`) has no locality to
//!   protect; the documented fallback policy is **least-loaded**:
//!   the shard with the fewest waiting jobs, ties broken by lowest
//!   index.
//!
//! **Executors.** Jobs are run by a fixed set of executor threads
//! shared by every shard (`ServerConfig::workers` of them), not by a
//! thread per shard, so a shard keeps no queue of its own, only a
//! count: admission puts every job, with its shard, on one *pending*
//! list. An executor takes the next job of the current
//! **generation**; when that is exhausted, it seals the next
//! generation by taking the whole pending list and ordering it by
//! the jobs' work estimates, cheapest first, ties in admission
//! order. So a cheap `solve` admitted behind
//! expensive cells starts before them, and because a generation is
//! sealed only once the previous one has been handed out, a job of a
//! later generation never starts before one of an earlier generation —
//! nothing starves. Each job runs to completion on its executor
//! against its own shard's engine; with one executor per core, jobs
//! never time-slice a core with each other. An executor with nothing
//! to run parks on a condvar that admission notifies; an idle server
//! wakes no thread.
//!
//! Each shard counts its *waiting* jobs — admitted and not started,
//! pending or sealed — which sets its queue bound, least-loaded
//! routing and its reported queue depth.
//!
//! [`ShardPool::resize`] re-splits the pool without dropping in-flight
//! requests: new shards (fresh engines, cold caches) are swapped in
//! for admission. A job already admitted carries its old shard with
//! it, so it still runs, against the engine it was routed to.
//!
//! Responses are pure functions of their request documents, so the
//! shard count, executor count and run order never change a result;
//! see `tests/sharding.rs` for the pinned byte-identity.

use crate::server::{Inner, Job};
use crate::telemetry::ShardObs;
use poisongame_sim::engine::EvalEngine;
use poisongame_sim::ExecPolicy;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::{self, JoinHandle};

/// Per-shard-instance monotonic counters (reset when a resize replaces
/// the shard).
#[derive(Debug, Default)]
pub(crate) struct ShardCounters {
    pub admitted: AtomicU64,
    pub completed: AtomicU64,
    pub shed: AtomicU64,
    pub expired: AtomicU64,
    pub failed: AtomicU64,
    pub busy_micros: AtomicU64,
}

/// One engine shard: an independent evaluation engine (own bounded
/// prep cache) and a bounded count of waiting jobs.
pub(crate) struct Shard {
    pub index: usize,
    pub engine: EvalEngine,
    pub queue_capacity: usize,
    /// Admitted jobs that have not started (changed under the run
    /// lock).
    waiting: AtomicUsize,
    pub counters: ShardCounters,
    /// Registry-backed handles for this shard's label. Resized shards
    /// with the same index reuse the same underlying metrics, so the
    /// exposed counters stay monotone across generations.
    pub obs: ShardObs,
}

impl Shard {
    fn new(index: usize, queue_capacity: usize, engine: EvalEngine) -> Self {
        Self {
            index,
            engine,
            queue_capacity,
            waiting: AtomicUsize::new(0),
            counters: ShardCounters::default(),
            obs: ShardObs::register(index),
        }
    }

    /// Admitted jobs that have not started (used by routing, stats and
    /// the queue bound).
    pub fn queue_depth(&self) -> usize {
        self.waiting.load(Ordering::SeqCst)
    }
}

/// Jobs admitted and not started, each with the shard it was routed to.
#[derive(Default)]
struct RunList {
    /// The sealed generation not yet handed out, cheapest first.
    sealed: VecDeque<(Arc<Shard>, Job)>,
    /// Admitted since the last seal, in admission order.
    pending: Vec<(Arc<Shard>, Job)>,
}

/// The pool: the current shard set behind a read-mostly lock, the run
/// list the executors share, and the executor threads.
pub(crate) struct ShardPool {
    shards: RwLock<Arc<Vec<Arc<Shard>>>>,
    run: Mutex<RunList>,
    /// Executors with nothing to run park here; admission and shutdown
    /// notify it.
    ready: Condvar,
    executors: Mutex<Vec<JoinHandle<()>>>,
    /// Executors that have not exited yet. The multiplexer waits for
    /// zero before finishing a drain.
    active_executors: AtomicUsize,
    /// Times a parked executor woke up (an idle server adds none).
    wakeups: AtomicU64,
    /// Admission order: the run list's tie-break.
    next_seq: AtomicU64,
    queue_capacity: usize,
    cache_capacity: Option<usize>,
    eval_policy: ExecPolicy,
}

impl ShardPool {
    /// Build the pool's state with `shards` cold shards. Executors are
    /// not running yet — call [`ShardPool::spawn_executors`] once the
    /// shared server state exists.
    pub fn new(
        shards: usize,
        queue_capacity: usize,
        cache_capacity: Option<usize>,
        eval_policy: ExecPolicy,
    ) -> Self {
        let pool = Self {
            shards: RwLock::new(Arc::new(Vec::new())),
            run: Mutex::new(RunList::default()),
            ready: Condvar::new(),
            executors: Mutex::new(Vec::new()),
            active_executors: AtomicUsize::new(0),
            wakeups: AtomicU64::new(0),
            next_seq: AtomicU64::new(0),
            queue_capacity,
            cache_capacity,
            eval_policy,
        };
        *pool.shards.write().expect("shard set poisoned") = Arc::new(pool.build_shards(shards));
        pool
    }

    fn build_shards(&self, n: usize) -> Vec<Arc<Shard>> {
        (0..n)
            .map(|index| {
                let engine = match self.cache_capacity {
                    Some(capacity) => {
                        EvalEngine::with_policy(self.eval_policy).bound_cache(capacity)
                    }
                    None => EvalEngine::with_policy(self.eval_policy),
                };
                Arc::new(Shard::new(index, self.queue_capacity, engine))
            })
            .collect()
    }

    /// The current shard set (cheap `Arc` snapshot).
    pub fn current(&self) -> Arc<Vec<Arc<Shard>>> {
        Arc::clone(&self.shards.read().expect("shard set poisoned"))
    }

    /// The next admission sequence number.
    pub fn next_seq(&self) -> u64 {
        self.next_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Executors still running.
    pub fn active_executors(&self) -> usize {
        self.active_executors.load(Ordering::SeqCst)
    }

    /// Times a parked executor has woken up.
    #[cfg(test)]
    pub fn wakeups(&self) -> u64 {
        self.wakeups.load(Ordering::SeqCst)
    }

    /// Start `n` executor threads.
    pub fn spawn_executors(&self, inner: &Arc<Inner>, n: usize) {
        let mut executors = self.executors.lock().expect("executor handles poisoned");
        for _ in 0..n {
            self.active_executors.fetch_add(1, Ordering::SeqCst);
            let inner = Arc::clone(inner);
            executors.push(thread::spawn(move || {
                while let Some((shard, job)) = inner.pool.next_job(&inner.shutdown) {
                    crate::server::run_job(&inner, &shard, job);
                }
                inner.pool.active_executors.fetch_sub(1, Ordering::SeqCst);
                // A drain may be waiting on the executor count.
                inner.wake_mux();
            }));
        }
    }

    /// Admit `job` to `shard`, or hand it back (`Some`) when the
    /// shard's queue bound is reached. Taking the run lock orders the
    /// push (and the wakeup) after any executor's check of the list, so
    /// the wakeup cannot be lost.
    pub fn admit(&self, shard: Arc<Shard>, job: Job) -> Option<Job> {
        let mut run = self.run.lock().expect("run list poisoned");
        if shard.waiting.load(Ordering::SeqCst) >= shard.queue_capacity {
            shard.counters.shed.fetch_add(1, Ordering::Relaxed);
            return Some(job);
        }
        shard.waiting.fetch_add(1, Ordering::SeqCst);
        shard.counters.admitted.fetch_add(1, Ordering::Relaxed);
        run.pending.push((shard, job));
        self.ready.notify_one();
        None
    }

    /// Wake every executor (the shutdown flag flipped).
    pub fn wake_all(&self) {
        let _run = self.run.lock().expect("run list poisoned");
        self.ready.notify_all();
    }

    /// The next job to run: the head of the sealed generation, sealing
    /// the pending list as the next generation when it is exhausted.
    /// Parks while there is nothing to run; returns `None` once
    /// `shutdown` is set and nothing is waiting.
    fn next_job(&self, shutdown: &AtomicBool) -> Option<(Arc<Shard>, Job)> {
        let mut run = self.run.lock().expect("run list poisoned");
        loop {
            if let Some((shard, job)) = run.sealed.pop_front() {
                shard.waiting.fetch_sub(1, Ordering::SeqCst);
                if !run.sealed.is_empty() || !run.pending.is_empty() {
                    // Hand the rest to a parked peer.
                    self.ready.notify_one();
                }
                return Some((shard, job));
            }
            if !run.pending.is_empty() {
                let mut generation = std::mem::take(&mut run.pending);
                generation.sort_by_key(|(_, job)| (job.cost, job.seq));
                run.sealed = generation.into();
                continue;
            }
            if shutdown.load(Ordering::SeqCst) {
                return None;
            }
            run = self.ready.wait(run).expect("run list poisoned");
            self.wakeups.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Re-split the pool to `n` shards: swap a fresh shard set in for
    /// admission. Jobs the old shards admitted keep their shard and
    /// still run; the old caches are released with the last of them (a
    /// resize to the same count is therefore a rebalance with fresh
    /// caches).
    pub fn resize(&self, n: usize) {
        let fresh = Arc::new(self.build_shards(n));
        let old = std::mem::replace(
            &mut *self.shards.write().expect("shard set poisoned"),
            fresh,
        );
        crate::telemetry::note_resize(old.len(), n);
    }

    /// Join every executor thread (call after the shutdown drain).
    pub fn join_all(&self) {
        let handles: Vec<JoinHandle<()>> = self
            .executors
            .lock()
            .expect("executor handles poisoned")
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

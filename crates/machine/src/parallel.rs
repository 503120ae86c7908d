//! Deterministic fork–join helpers on OS threads.
//!
//! The build container has no registry access, so instead of `rayon` this
//! module provides the primitives the parallel engines and the job pool
//! need, all with outputs **independent of thread count and scheduling**:
//!
//! - [`parallel_map_indexed`] — a one-shot indexed map whose results are
//!   ordered by index (the replica-ensemble engine's shape). Work items are
//!   handed out dynamically through an atomic cursor (load balancing), but
//!   every item's result lands in its own slot, so the reduction the caller
//!   performs over the returned `Vec` is bit-identical to a serial run.
//! - [`parallel_rounds_while`] — a repeated fork–join over one **persistent**
//!   worker pool with a serial join phase between rounds (parallel
//!   tempering's shape). Spawning once and synchronizing rounds on a
//!   barrier keeps the per-round cost at two barrier crossings instead of a
//!   full thread spawn/join cycle — the difference between useful and
//!   useless parallelism when one round is tens of microseconds of work.
//! - [`ScheduledQueue`] — the multi-tenant queue under the network
//!   front-end's worker fleet, the crate's one persistent job pool: every
//!   item carries a [`Ticket`] naming its client, weight, priority class,
//!   and optional deadline, and [`ScheduledQueue::pop`] hands out work by
//!   strict priority band, weighted-fair across clients inside a band
//!   (integer virtual-time start tags), and earliest-deadline-first within
//!   one client's backlog. Items whose deadline already passed at dequeue come
//!   back tagged [`Scheduled::expired`] so the caller can shed them without
//!   ever charging a worker — or the client's fairness account — for them.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Barrier, Condvar, Mutex};

/// Number of worker threads to use when the caller asks for "all cores".
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

std::thread_local! {
    /// Whether the current thread is a pool worker (a `parallel_map_indexed`
    /// / `parallel_rounds_while` worker or a front-end worker). Auto-sized
    /// (`threads == 0`) maps called from inside a worker run inline instead
    /// of spawning a nested all-cores pool — an outer instance grid over
    /// inner run ensembles would otherwise oversubscribe the machine with up
    /// to cores² threads.
    static IN_POOL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Marks the current thread as a pool worker, so auto-sized (`threads == 0`)
/// primitives invoked from it run inline instead of spawning nested
/// all-cores pools. Worker threads of the long-lived front-end pool call
/// this once at startup; the flag never changes results, only how many
/// OS threads nested engines spawn.
pub(crate) fn mark_pool_worker() {
    IN_POOL.with(|flag| flag.set(true));
}

/// Resolves a requested long-lived-pool worker count the same way the
/// fork–join primitives resolve `threads`: `0` means all cores — except on
/// a thread that is already a pool worker, where it means 1, so a front-end
/// started from inside another pool cannot recreate the cores²
/// oversubscription the flag exists to prevent. An explicit count is
/// always honored. Never changes results, only thread counts.
pub(crate) fn resolve_pool_workers(requested: usize) -> usize {
    if requested == 0 {
        auto_workers()
    } else {
        requested
    }
}

/// The worker count an auto-sized (`0`) request resolves to on the current
/// thread: all cores, or 1 inside another pool's worker. Use this to cap
/// an explicit worker count (say, at a job count) without losing the
/// nested-pool guard — `count.clamp(1, auto_workers())` stays 1 when the
/// caller is itself pool work.
pub fn auto_workers() -> usize {
    if IN_POOL.with(std::cell::Cell::get) {
        1
    } else {
        available_threads()
    }
}

/// Maps `f` over `0..count` using up to `threads` OS threads, returning the
/// results in index order.
///
/// `threads == 0` means [`available_threads`] — except inside another
/// auto-sized map's worker, where it means 1 (no nested pools). An explicit
/// thread count is always honored. The effective parallelism is also capped
/// at `count`. With one effective thread the map runs inline on the
/// caller's thread — no pool, no overhead. None of this ever changes
/// results, only wall-clock.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope joins all workers first).
pub fn parallel_map_indexed<T, F>(count: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = resolve_threads(threads, count);
    if threads == 1 {
        return (0..count).map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    let mut slots: Vec<Option<T>> = Vec::with_capacity(count);
    slots.resize_with(count, || None);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let cursor = &cursor;
            let f = &f;
            scope.spawn(move || {
                IN_POOL.with(|flag| flag.set(true));
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    // the receiver loop below outlives every sender clone, so
                    // this cannot fail; a worker panic surfaces at scope join
                    tx.send((i, f(i))).expect("receiver outlives the workers");
                }
            });
        }
        drop(tx);
        for (i, value) in rx {
            slots[i] = Some(value);
        }
    });

    slots
        .into_iter()
        .map(|s| s.expect("every index was produced exactly once"))
        .collect()
}

/// Resolves a requested thread count: `0` means all cores — except inside
/// another auto-sized primitive's worker, where it means 1 (no nested
/// pools). Always capped at `count` and at least 1.
fn resolve_threads(threads: usize, count: usize) -> usize {
    resolve_pool_workers(threads).min(count).max(1)
}

/// The lane-group width both batched engines
/// ([`EnsembleAnnealer`](crate::EnsembleAnnealer)'s adaptive width and
/// [`ParallelTempering`](crate::ParallelTempering)'s ladder groups) split
/// `count` replicas into for a `threads` request: as wide as possible
/// while the group fan-out still covers its workers, capped at
/// [`EnsembleConfig::DEFAULT_BATCH_WIDTH`](crate::EnsembleConfig::DEFAULT_BATCH_WIDTH).
/// `threads` resolves exactly as the fan-out resolves it — `0` is
/// [`auto_workers`], so inside another pool's worker, where the fan-out
/// runs inline on one thread, the replicas form one group instead of
/// being split for cores that will never run them. Lane trajectories are
/// batch-width-invariant, so the width changes wall-clock only, never
/// results.
pub(crate) fn lane_group_width(count: usize, threads: usize) -> usize {
    count
        .div_ceil(resolve_pool_workers(threads))
        .clamp(1, crate::EnsembleConfig::DEFAULT_BATCH_WIDTH)
}

/// Runs up to `rounds` fork–join rounds over one persistent worker pool.
///
/// Each round applies `work(round, item)` to every `item in 0..items`
/// exactly once (items are handed out dynamically), then calls
/// `join(round)` on the caller's thread — with every worker parked at a
/// barrier — before the next round begins. Per-item state lives with the
/// caller (e.g. a `Vec<Mutex<_>>` indexed by item), so results are
/// deterministic whenever items don't share mutable state across indices.
///
/// `join` returns `true` to continue into the next round, `false` to shut
/// the pool down immediately (remaining rounds never run). This is the
/// cooperative cancellation / checkpoint shape — the decision to stop is
/// taken on the caller's thread with every worker parked, so per-item
/// state is safe to snapshot right before returning `false`.
///
/// `threads` resolves like [`parallel_map_indexed`]: `0` means all cores
/// (or 1 inside another auto-sized pool), the effective count is capped at
/// `items`, and one effective thread runs everything inline on the caller's
/// thread with no pool at all. None of this ever changes results, only
/// wall-clock.
///
/// Returns the number of rounds whose work phase completed.
///
/// # Panics
///
/// Propagates the first panic observed in `work` (the round's workers all
/// reach the barrier first, then the pool shuts down), and any panic from
/// `join`.
pub fn parallel_rounds_while<W, J>(
    items: usize,
    threads: usize,
    rounds: usize,
    work: W,
    mut join: J,
) -> usize
where
    W: Fn(usize, usize) + Sync,
    J: FnMut(usize) -> bool,
{
    let threads = resolve_threads(threads, items);
    if threads == 1 {
        for round in 0..rounds {
            for item in 0..items {
                work(round, item);
            }
            if !join(round) {
                return round + 1;
            }
        }
        return rounds;
    }

    // workers + the caller all meet at the barrier twice per round: once to
    // open the round, once to close it (the join phase runs between closes
    // and opens, so workers never observe it mid-flight)
    let barrier = Barrier::new(threads + 1);
    let cursor = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let panic_slot: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let barrier = &barrier;
            let cursor = &cursor;
            let stop = &stop;
            let panic_slot = &panic_slot;
            let work = &work;
            scope.spawn(move || {
                IN_POOL.with(|flag| flag.set(true));
                let mut round = 0usize;
                loop {
                    barrier.wait(); // round opens (or the pool shuts down)
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    // a panicking item must not strand the others at the
                    // closing barrier: catch it, park the payload, and let
                    // the caller re-raise it after the round closes
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items {
                            break;
                        }
                        work(round, i);
                    }));
                    if let Err(payload) = result {
                        let mut slot = panic_slot.lock().expect("panic slot is never poisoned");
                        slot.get_or_insert(payload);
                    }
                    barrier.wait(); // round closes
                    round += 1;
                }
            });
        }

        let mut completed = 0usize;
        for round in 0..rounds {
            cursor.store(0, Ordering::Relaxed);
            barrier.wait(); // open the round
            barrier.wait(); // closed: every item is done
            completed = round + 1;
            let payload = panic_slot
                .lock()
                .expect("panic slot is never poisoned")
                .take();
            if let Some(payload) = payload {
                stop.store(true, Ordering::Relaxed);
                barrier.wait(); // release the workers so the scope can join
                std::panic::resume_unwind(payload);
            }
            // a panicking join must also release the parked workers, or the
            // scope would deadlock waiting for them
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| join(round))) {
                Ok(true) => {}
                Ok(false) => break,
                Err(payload) => {
                    stop.store(true, Ordering::Relaxed);
                    barrier.wait();
                    std::panic::resume_unwind(payload);
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        barrier.wait(); // release the workers into shutdown
        completed
    })
}

// ------------------------------------------------- multi-tenant scheduling

/// Scheduling metadata an item enters a [`ScheduledQueue`] with.
///
/// The queue interprets the fields as follows:
///
/// - `priority` classes are **strict**: while any item of a higher class is
///   queued, no lower-class item is handed out.
/// - Within a class, clients share capacity in proportion to `weight`
///   (weighted-fair queueing on integer virtual time — see
///   [`ScheduledQueue::pop`]).
/// - Within one client's backlog of a class, items are ordered
///   earliest-deadline-first; items without a deadline come after every
///   deadlined one, in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket {
    /// The submitting client; fairness is accounted per client.
    pub client: u64,
    /// Fair-share weight (clamped to at least 1). A weight-2 client is
    /// entitled to twice the dequeues of a weight-1 client under contention.
    pub weight: u32,
    /// Strict priority class; higher values are served first.
    pub priority: u8,
    /// Optional absolute deadline in scheduler-clock ticks (the caller
    /// decides the unit; the front-end uses milliseconds since its epoch).
    /// An item whose deadline is in the past when popped is returned with
    /// [`Scheduled::expired`] set.
    pub deadline: Option<u64>,
}

/// One item handed out by [`ScheduledQueue::pop`].
#[derive(Debug)]
pub struct Scheduled<T> {
    /// The queue-assigned submission sequence number (global, monotonic).
    pub seq: u64,
    /// The ticket the item was pushed with.
    pub ticket: Ticket,
    /// The item itself.
    pub item: T,
    /// Whether the item's deadline had already passed at dequeue time.
    /// Expired items are not charged to the client's fairness account.
    pub expired: bool,
}

/// The weighted-fair cost scale: one dequeue costs `SCALE / weight` virtual
/// ticks. 840 is divisible by every weight in 1..=8, so typical weights
/// produce exact integer costs and fairness holds without rounding drift.
const WFQ_SCALE: u64 = 840;

/// Per-client backlog ordering key inside one priority band: deadline first
/// (`u64::MAX` for none), then submission sequence.
type EdfKey = (u64, u64);

struct ScheduledState<T> {
    /// Every queued item, keyed by submission sequence.
    entries: HashMap<u64, (Ticket, T)>,
    /// `priority → client → EDF-ordered backlog`. Empty sets and maps are
    /// pruned eagerly so band/client scans only ever see live backlogs.
    bands: BTreeMap<u8, BTreeMap<u64, BTreeSet<EdfKey>>>,
    /// Virtual finish tag per `(priority, client)`.
    tags: HashMap<(u8, u64), u64>,
    /// Virtual time per priority band (the start tag of the last dequeue).
    vtime: HashMap<u8, u64>,
    next_seq: u64,
    closed: bool,
}

/// A blocking multi-tenant work queue: strict priorities, weighted-fair
/// service across clients, earliest-deadline-first within a client.
///
/// This is the queue under the front-end's worker fleet. It is
/// **unbounded** by design — admission control (shedding load
/// with a typed overload response instead of letting the backlog grow) is
/// the caller's policy decision and lives above the queue, where the caller
/// can count queued items per client and in total.
///
/// The queue orders only *hand-offs*, never completions; determinism of
/// results comes from items being independent, exactly as in
/// [`parallel_map_indexed`].
pub struct ScheduledQueue<T> {
    state: Mutex<ScheduledState<T>>,
    not_empty: Condvar,
}

impl<T> Default for ScheduledQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ScheduledQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        ScheduledQueue {
            state: Mutex::new(ScheduledState {
                entries: HashMap::new(),
                bands: BTreeMap::new(),
                tags: HashMap::new(),
                vtime: HashMap::new(),
                next_seq: 0,
                closed: false,
            }),
            not_empty: Condvar::new(),
        }
    }

    /// Enqueues `item` under `ticket` and returns its submission sequence
    /// number.
    ///
    /// # Errors
    ///
    /// Returns the item back once the queue is closed.
    pub fn push(&self, ticket: Ticket, item: T) -> Result<u64, T> {
        let mut state = self.state.lock().expect("queue lock is never poisoned");
        if state.closed {
            return Err(item);
        }
        let seq = state.next_seq;
        state.next_seq += 1;
        let key = (ticket.deadline.unwrap_or(u64::MAX), seq);
        state
            .bands
            .entry(ticket.priority)
            .or_default()
            .entry(ticket.client)
            .or_default()
            .insert(key);
        state.entries.insert(seq, (ticket, item));
        drop(state);
        self.not_empty.notify_one();
        Ok(seq)
    }

    /// Number of items currently waiting (racy by nature; for telemetry).
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .expect("queue lock is never poisoned")
            .entries
            .len()
    }

    /// Whether no items are currently waiting (racy by nature).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dequeues the next item under the scheduling policy, blocking while
    /// the queue is empty. Returns `None` once the queue is closed **and**
    /// drained — the worker-shutdown signal.
    ///
    /// Selection, in order:
    ///
    /// 1. the highest priority band with any backlog;
    /// 2. within it, the client with the smallest virtual start tag
    ///    `max(finish_tag(client), vtime(band))` — ties go to the smaller
    ///    client id. The winner's finish tag advances by
    ///    `WFQ_SCALE / weight`, so heavier clients are picked
    ///    proportionally more often, and a client returning from idle is
    ///    caught up to the band's virtual time instead of being either
    ///    starved or granted a burst of back-credit;
    /// 3. within that client, the earliest deadline (no-deadline items
    ///    last), ties by submission order.
    ///
    /// `now` is sampled once per dequeue; if the selected item's deadline
    /// is already past, it is returned with [`Scheduled::expired`] set and
    /// the client's fairness account is **not** charged — shedding expired
    /// work must not consume the client's share.
    pub fn pop(&self, now: &dyn Fn() -> u64) -> Option<Scheduled<T>> {
        let mut state = self.state.lock().expect("queue lock is never poisoned");
        loop {
            if !state.entries.is_empty() {
                return Some(Self::select(&mut state, now()));
            }
            if state.closed {
                return None;
            }
            state = self
                .not_empty
                .wait(state)
                .expect("queue lock is never poisoned");
        }
    }

    /// Like [`ScheduledQueue::pop`] but never blocks; `None` means empty
    /// right now (closed or not).
    pub fn try_pop(&self, now: &dyn Fn() -> u64) -> Option<Scheduled<T>> {
        let mut state = self.state.lock().expect("queue lock is never poisoned");
        if state.entries.is_empty() {
            return None;
        }
        Some(Self::select(&mut state, now()))
    }

    fn select(state: &mut ScheduledState<T>, now: u64) -> Scheduled<T> {
        // 1. highest non-empty band (empties are pruned on removal)
        let (&priority, clients) = state
            .bands
            .iter()
            .next_back()
            .expect("select is only called with entries queued");
        let vtime = state.vtime.get(&priority).copied().unwrap_or(0);
        // 2. weighted-fair client choice: smallest virtual start tag wins,
        // ties to the smaller client id (BTreeMap iteration order)
        let (&client, _) = clients
            .iter()
            .min_by_key(|(&client, _)| {
                state
                    .tags
                    .get(&(priority, client))
                    .copied()
                    .unwrap_or(0)
                    .max(vtime)
            })
            .expect("non-empty band has at least one client");
        let start = state
            .tags
            .get(&(priority, client))
            .copied()
            .unwrap_or(0)
            .max(vtime);
        // 3. EDF within the chosen client's backlog
        let clients = state.bands.get_mut(&priority).expect("band exists");
        let backlog = clients.get_mut(&client).expect("client has backlog");
        let key = *backlog.iter().next().expect("backlog is non-empty");
        backlog.remove(&key);
        if backlog.is_empty() {
            clients.remove(&client);
            if clients.is_empty() {
                state.bands.remove(&priority);
            }
        }
        let (_, seq) = key;
        let (ticket, item) = state.entries.remove(&seq).expect("entry exists");
        let expired = ticket.deadline.is_some_and(|d| d < now);
        if !expired {
            let cost = (WFQ_SCALE / u64::from(ticket.weight.max(1))).max(1);
            state.vtime.insert(priority, start);
            state.tags.insert((priority, client), start + cost);
        }
        Scheduled {
            seq,
            ticket,
            item,
            expired,
        }
    }

    /// Removes every queued item belonging to `client` (and the client's
    /// fairness tags), returning the items in submission order — the
    /// client-disconnect path: a vanished client's backlog must not occupy
    /// workers.
    pub fn remove_client(&self, client: u64) -> Vec<(u64, T)> {
        let mut state = self.state.lock().expect("queue lock is never poisoned");
        let ScheduledState {
            entries,
            bands,
            tags,
            ..
        } = &mut *state;
        let mut seqs: Vec<u64> = Vec::new();
        bands.retain(|&priority, clients| {
            if let Some(backlog) = clients.remove(&client) {
                seqs.extend(backlog.iter().map(|&(_, seq)| seq));
                tags.remove(&(priority, client));
            }
            !clients.is_empty()
        });
        seqs.sort_unstable();
        seqs.into_iter()
            .map(|seq| {
                let (_, item) = entries.remove(&seq).expect("entry exists");
                (seq, item)
            })
            .collect()
    }

    /// Removes one queued item by its submission sequence number — the
    /// explicit-cancel path. Returns `None` when the item already left the
    /// queue (a worker picked it up, or it was never there).
    pub fn remove_seq(&self, seq: u64) -> Option<(Ticket, T)> {
        let mut state = self.state.lock().expect("queue lock is never poisoned");
        let (ticket, item) = state.entries.remove(&seq)?;
        let key = (ticket.deadline.unwrap_or(u64::MAX), seq);
        if let Some(clients) = state.bands.get_mut(&ticket.priority) {
            if let Some(backlog) = clients.get_mut(&ticket.client) {
                backlog.remove(&key);
                if backlog.is_empty() {
                    clients.remove(&ticket.client);
                }
            }
            if clients.is_empty() {
                state.bands.remove(&ticket.priority);
            }
        }
        Some((ticket, item))
    }

    /// Closes the queue and hands back everything still waiting, in
    /// submission order — the graceful-shutdown path: not-yet-started work
    /// is returned to be persisted and resubmitted, and workers drain out
    /// through
    /// [`ScheduledQueue::pop`] returning `None`.
    pub fn take_pending(&self) -> Vec<(u64, Ticket, T)> {
        let mut state = self.state.lock().expect("queue lock is never poisoned");
        state.closed = true;
        state.bands.clear();
        state.tags.clear();
        state.vtime.clear();
        let mut pending: Vec<(u64, Ticket, T)> = state
            .entries
            .drain()
            .map(|(seq, (ticket, item))| (seq, ticket, item))
            .collect();
        pending.sort_by_key(|(seq, _, _)| *seq);
        drop(state);
        self.not_empty.notify_all();
        pending
    }

    /// Closes the queue: no further pushes are accepted, already-queued
    /// items can still be popped, and every parked worker wakes up.
    pub fn close(&self) {
        self.state
            .lock()
            .expect("queue lock is never poisoned")
            .closed = true;
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_index_ordered_for_any_thread_count() {
        let expect: Vec<usize> = (0..97).map(|i| i * i).collect();
        for threads in [0, 1, 2, 3, 8, 64] {
            let got = parallel_map_indexed(97, threads, |i| i * i);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert_eq!(parallel_map_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map_indexed(1, 4, |i| i + 10), vec![10]);
    }

    #[test]
    fn oversubscription_is_capped() {
        // more threads than items must still produce every item once
        let got = parallel_map_indexed(3, 100, |i| i);
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }

    #[test]
    fn rounds_visit_every_item_once_per_round_for_any_thread_count() {
        for threads in [0usize, 1, 2, 3, 8] {
            let slots: Vec<Mutex<Vec<usize>>> = (0..5).map(|_| Mutex::new(Vec::new())).collect();
            let mut joined = Vec::new();
            parallel_rounds_while(
                5,
                threads,
                4,
                |round, item| slots[item].lock().unwrap().push(round),
                |round| {
                    joined.push(round);
                    true
                },
            );
            assert_eq!(joined, vec![0, 1, 2, 3], "threads = {threads}");
            for (item, slot) in slots.iter().enumerate() {
                assert_eq!(
                    *slot.lock().unwrap(),
                    vec![0, 1, 2, 3],
                    "item {item}, threads = {threads}"
                );
            }
        }
    }

    #[test]
    fn rounds_join_sees_the_whole_round() {
        // every item increments its counter once per round; the join phase
        // must observe all of them at exactly round + 1
        let counters: Vec<Mutex<usize>> = (0..7).map(|_| Mutex::new(0)).collect();
        parallel_rounds_while(
            7,
            4,
            5,
            |_, item| *counters[item].lock().unwrap() += 1,
            |round| {
                for c in &counters {
                    assert_eq!(*c.lock().unwrap(), round + 1);
                }
                true
            },
        );
    }

    #[test]
    fn rounds_with_zero_rounds_or_items_are_noops() {
        parallel_rounds_while(5, 2, 0, |_, _| panic!("no work"), |_| panic!("no join"));
        let mut joins = 0;
        parallel_rounds_while(
            0,
            2,
            3,
            |_, _| panic!("no items"),
            |_| {
                joins += 1;
                true
            },
        );
        assert_eq!(joins, 3);
    }

    #[test]
    #[should_panic(expected = "boom in a round worker")]
    fn rounds_propagate_worker_panics() {
        parallel_rounds_while(
            4,
            2,
            3,
            |round, item| {
                if round == 1 && item == 2 {
                    panic!("boom in a round worker");
                }
            },
            |_| true,
        );
    }

    #[test]
    fn rounds_while_stops_early_at_the_join_decision() {
        for threads in [0usize, 1, 2, 4] {
            let counters: Vec<Mutex<usize>> = (0..5).map(|_| Mutex::new(0)).collect();
            let completed = parallel_rounds_while(
                5,
                threads,
                10,
                |_, item| *counters[item].lock().unwrap() += 1,
                |round| round < 2, // continue after rounds 0 and 1, stop after 2
            );
            assert_eq!(completed, 3, "threads = {threads}");
            for c in &counters {
                assert_eq!(*c.lock().unwrap(), 3, "threads = {threads}");
            }
        }
    }

    #[test]
    fn rounds_while_runs_to_completion_when_join_never_stops() {
        let completed = parallel_rounds_while(3, 2, 4, |_, _| {}, |_| true);
        assert_eq!(completed, 4);
    }

    #[test]
    fn nested_auto_maps_run_inline_and_stay_correct() {
        // outer auto pool × inner auto pool: inner must not spawn (no
        // cores² oversubscription) and results must match the serial map
        let got = parallel_map_indexed(6, 0, |i| parallel_map_indexed(4, 0, move |j| i * 10 + j));
        let expect: Vec<Vec<usize>> = (0..6)
            .map(|i| (0..4).map(|j| i * 10 + j).collect())
            .collect();
        assert_eq!(got, expect);
        // an explicit inner thread count is still honored inside a pool
        let got = parallel_map_indexed(2, 0, |i| parallel_map_indexed(3, 2, move |j| i + j));
        assert_eq!(got, vec![vec![0, 1, 2], vec![1, 2, 3]]);
    }

    #[test]
    fn auto_workers_collapses_inside_a_pool() {
        assert!(auto_workers() >= 1);
        // from inside any pool worker, an auto-sized request means 1
        let got = parallel_map_indexed(2, 2, |_| auto_workers());
        assert_eq!(got, vec![1, 1]);
    }

    // ------------------------------------------------------ ScheduledQueue

    fn ticket(client: u64, weight: u32, priority: u8, deadline: Option<u64>) -> Ticket {
        Ticket {
            client,
            weight,
            priority,
            deadline,
        }
    }

    /// Drains the queue without blocking, recording (client, item) pairs.
    fn drain_order(q: &ScheduledQueue<u32>, now: u64) -> Vec<(u64, u32)> {
        let clock = move || now;
        let mut order = Vec::new();
        while let Some(s) = q.try_pop(&clock) {
            order.push((s.ticket.client, s.item));
        }
        order
    }

    #[test]
    fn scheduled_priority_bands_are_strict() {
        let q = ScheduledQueue::new();
        q.push(ticket(1, 1, 0, None), 10u32).expect("open");
        q.push(ticket(2, 1, 2, None), 20).expect("open");
        q.push(ticket(3, 1, 1, None), 30).expect("open");
        let order: Vec<u32> = drain_order(&q, 0).into_iter().map(|(_, i)| i).collect();
        assert_eq!(order, vec![20, 30, 10]);
    }

    #[test]
    fn scheduled_equal_weights_interleave_fairly() {
        // A floods 20 items, B has 2; equal weights → B is served at every
        // other slot until its backlog is gone, not after A's flood.
        let q = ScheduledQueue::new();
        for i in 0..20u32 {
            q.push(ticket(1, 1, 0, None), i).expect("open");
        }
        q.push(ticket(2, 1, 0, None), 100).expect("open");
        q.push(ticket(2, 1, 0, None), 101).expect("open");
        let clients: Vec<u64> = drain_order(&q, 0).into_iter().map(|(c, _)| c).collect();
        assert_eq!(&clients[..4], &[1, 2, 1, 2]);
        assert!(clients[4..].iter().all(|&c| c == 1));
    }

    #[test]
    fn scheduled_weights_shape_shares() {
        // B at weight 4 vs A at weight 1: of any 5 consecutive slots under
        // full backlog, B gets 4.
        let q = ScheduledQueue::new();
        for i in 0..4u32 {
            q.push(ticket(1, 1, 0, None), i).expect("open");
        }
        for i in 0..16u32 {
            q.push(ticket(2, 4, 0, None), 100 + i).expect("open");
        }
        let clients: Vec<u64> = drain_order(&q, 0).into_iter().map(|(c, _)| c).collect();
        let b_in_first_10 = clients[..10].iter().filter(|&&c| c == 2).count();
        assert_eq!(clients.len(), 20);
        assert_eq!(b_in_first_10, 8, "order was {clients:?}");
    }

    #[test]
    fn scheduled_edf_within_client() {
        let q = ScheduledQueue::new();
        q.push(ticket(1, 1, 0, Some(300)), 3u32).expect("open");
        q.push(ticket(1, 1, 0, None), 9).expect("open");
        q.push(ticket(1, 1, 0, Some(100)), 1).expect("open");
        q.push(ticket(1, 1, 0, Some(200)), 2).expect("open");
        // tie on deadline breaks by submission order
        q.push(ticket(1, 1, 0, Some(100)), 4).expect("open");
        let order: Vec<u32> = drain_order(&q, 0).into_iter().map(|(_, i)| i).collect();
        assert_eq!(order, vec![1, 4, 2, 3, 9]);
    }

    #[test]
    fn scheduled_expired_items_skip_fairness_charge() {
        let q = ScheduledQueue::new();
        // A's first two items are already expired at now=50; B queued behind.
        q.push(ticket(1, 1, 0, Some(10)), 0u32).expect("open");
        q.push(ticket(1, 1, 0, Some(20)), 1).expect("open");
        q.push(ticket(1, 1, 0, None), 2).expect("open");
        q.push(ticket(1, 1, 0, None), 3).expect("open");
        q.push(ticket(2, 1, 0, None), 100).expect("open");
        q.push(ticket(2, 1, 0, None), 101).expect("open");
        let clock = || 50u64;
        let first = q.try_pop(&clock).expect("item");
        let second = q.try_pop(&clock).expect("item");
        assert!(first.expired && second.expired);
        assert_eq!((first.item, second.item), (0, 1));
        // A shed two expired items without being charged, so live service
        // still alternates A, B, A, B.
        let rest: Vec<(u64, u32)> = drain_order(&q, 50);
        assert_eq!(rest, vec![(1, 2), (2, 100), (1, 3), (2, 101)]);
    }

    #[test]
    fn scheduled_remove_client_clears_backlog_and_tags() {
        let q = ScheduledQueue::new();
        q.push(ticket(1, 1, 0, None), 0u32).expect("open");
        q.push(ticket(1, 1, 1, None), 1).expect("open");
        q.push(ticket(2, 1, 0, None), 100).expect("open");
        let removed = q.remove_client(1);
        assert_eq!(
            removed.iter().map(|&(_, i)| i).collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert_eq!(q.len(), 1);
        assert_eq!(drain_order(&q, 0), vec![(2, 100)]);
    }

    #[test]
    fn scheduled_remove_seq_cancels_one_item() {
        let q = ScheduledQueue::new();
        let a = q.push(ticket(1, 1, 0, Some(5)), 0u32).expect("open");
        q.push(ticket(1, 1, 0, None), 1).expect("open");
        let (t, item) = q.remove_seq(a).expect("still queued");
        assert_eq!((t.client, item), (1, 0));
        assert!(q.remove_seq(a).is_none(), "second removal finds nothing");
        assert_eq!(drain_order(&q, 0), vec![(1, 1)]);
    }

    #[test]
    fn scheduled_take_pending_returns_submission_order_and_closes() {
        let q = ScheduledQueue::new();
        q.push(ticket(1, 1, 0, None), 0u32).expect("open");
        q.push(ticket(2, 1, 7, None), 1).expect("open");
        q.push(ticket(1, 1, 3, Some(9)), 2).expect("open");
        let pending = q.take_pending();
        let items: Vec<u32> = pending.iter().map(|&(_, _, i)| i).collect();
        assert_eq!(items, vec![0, 1, 2], "submission order, not schedule order");
        assert!(q.push(ticket(1, 1, 0, None), 9).is_err(), "closed");
        assert!(q.pop(&|| 0).is_none(), "closed and drained");
    }

    #[test]
    fn scheduled_close_wakes_parked_consumer() {
        let q = std::sync::Arc::new(ScheduledQueue::<u32>::new());
        let waiter = {
            let q = std::sync::Arc::clone(&q);
            std::thread::spawn(move || q.pop(&|| 0).map(|s| s.item))
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.close();
        assert_eq!(waiter.join().expect("waiter finishes"), None);
    }

    #[test]
    fn scheduled_pop_blocks_until_push() {
        let q = std::sync::Arc::new(ScheduledQueue::<u32>::new());
        let waiter = {
            let q = std::sync::Arc::clone(&q);
            std::thread::spawn(move || q.pop(&|| 0).map(|s| s.item))
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.push(ticket(1, 1, 0, None), 42).expect("open");
        assert_eq!(waiter.join().expect("waiter finishes"), Some(42));
    }
}

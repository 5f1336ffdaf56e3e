//! Persistent, barrier-synchronized worker pool for round-based
//! execution.
//!
//! A [`Pool`] spawns one thread per worker **once** and then drives any
//! number of *phases* over them — each phase being one round-synchronous
//! computation run by [`Pool::run_rounds`]. Phases are type-erased:
//! the pool's threads outlive any single phase's state type, which is
//! what lets a [`Session`](crate::Session) run a multi-protocol
//! pipeline (BFS, then aggregation, then multi-BFS, …) with exactly one
//! pool spawn.
//!
//! # Round protocol
//!
//! Each round is two barrier phases:
//!
//! 1. **Send phase** — the coordinator publishes the round number and
//!    releases the *start* barrier; every worker runs the installed job
//!    on its own state and posts a report, then arrives at the *done*
//!    barrier.
//! 2. **Deliver phase** — crossing the *done* barrier makes all of the
//!    round's effects (mailbox writes, reports) visible to the
//!    coordinator, which aggregates the reports and decides via
//!    `control` whether to run another round. Workers park at the
//!    *start* barrier until that decision.
//!
//! The two [`std::sync::Barrier`]s are reused for every round of every
//! phase, so the steady-state cost of a round is two barrier crossings
//! per thread — no thread creation, no channel allocation, and across
//! phases not even a spawn.
//!
//! # Phase erasure and soundness
//!
//! A phase's per-worker job (step closure, state pointers, report
//! slots) lives on the coordinator's stack for the duration of
//! [`Pool::run_rounds`]; the pool stores only a lifetime-erased
//! `(data pointer, call thunk)` pair. Soundness rests on the phase
//! protocol:
//!
//! * the job is installed before the first *start* release of the phase
//!   and cleared before `run_rounds` returns (a drop guard clears it on
//!   unwind too);
//! * workers dereference the job only between the *start* and *done*
//!   barriers, and `run_rounds` does not return (or unwind past its
//!   frame) until every released worker has re-parked at *start*;
//! * workers check the shutdown flag **before** touching the job slot,
//!   so a pool drop never dereferences a stale phase.
//!
//! # Panic safety
//!
//! A `step` that panics is caught in the worker (the worker still
//! arrives at both barriers, so no other participant can deadlock); its
//! payload is delivered to `control` as that worker's
//! [`Err`](std::thread::Result) entry, **in worker order alongside the
//! other reports** — so the coordinator can resolve a panic against
//! other same-round events exactly as a sequential execution would
//! (e.g. the simulator lets a model violation in a lower shard win over
//! a panic in a higher one, because the sequential engine would have
//! hit the violation first and never run the panicking node).
//! Returning [`Control::Abort`] ends the phase and re-raises the
//! payload on the calling thread; the pool itself stays healthy and can
//! run further phases. A panicking `control` closure likewise
//! propagates after the phase is cleaned up.
//!
//! # Determinism
//!
//! Results are handed to `control` in worker-index order regardless of
//! thread scheduling, and each worker's job accesses disjoint `&mut`
//! state, so any reduction over the results that is order-independent —
//! or that explicitly resolves ties by worker index, as the simulator's
//! violation handling does — is bit-identical to a sequential
//! execution.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;

/// The coordinator's per-round decision, returned by the `control`
/// closure of [`Pool::run_rounds`].
pub enum Control<T> {
    /// Run another round (subject to the round limit).
    Continue,
    /// Run another round **inline on the coordinator thread**: every
    /// worker's step executes sequentially (in worker order) on the
    /// calling thread, without releasing the barrier. Semantically
    /// identical to [`Control::Continue`] — steps access disjoint state
    /// and the coordinator has exclusive access to all of it between
    /// barrier crossings — but a round whose total work is tiny skips
    /// the two barrier crossings entirely, so near-idle rounds cost
    /// `O(work)` instead of `O(threads)`. On a one-worker pool this is
    /// the same as [`Control::Continue`].
    ContinueInline,
    /// Stop the phase and make [`Pool::run_rounds`] return `Some(T)`.
    Stop(T),
    /// Stop the phase and re-raise this panic payload on the calling
    /// thread (the usual disposition for a worker's `Err` result).
    Abort(Box<dyn std::any::Any + Send>),
}

/// A lifetime-erased per-round job: `call(data, worker, round)` runs
/// one worker's share of one round. The pointee is a closure owned by
/// the coordinator's `run_rounds` frame; see the module docs for the
/// protocol that keeps the pointer valid whenever it is dereferenced.
#[derive(Clone, Copy)]
struct RawJob {
    data: *const (),
    call: unsafe fn(*const (), usize, u64),
}

// SAFETY: `RawJob` is two plain words; the *use* of the pointer is
// governed by the phase protocol (module docs), not by these impls.
unsafe impl Send for RawJob {}
// SAFETY: as for `Send`.
unsafe impl Sync for RawJob {}

unsafe fn call_thunk<F: Fn(usize, u64) + Sync>(data: *const (), worker: usize, round: u64) {
    (*data.cast::<F>())(worker, round)
}

/// Erases a phase job closure to a [`RawJob`] (the only place the
/// closure's concrete type is known).
fn raw_job_of<F: Fn(usize, u64) + Sync>(f: &F) -> RawJob {
    RawJob {
        data: (f as *const F).cast(),
        call: call_thunk::<F>,
    }
}

/// Shared coordinator/worker rendezvous state.
struct Shared {
    /// Released by the coordinator to start a round (or to shut down).
    start: Barrier,
    /// Crossed by everyone once a round's jobs have completed.
    done: Barrier,
    /// Round number for the round being started. Relaxed accesses are
    /// sufficient: every load/store is separated by a barrier crossing,
    /// which provides the happens-before edge.
    round: AtomicU64,
    /// Shutdown flag, read by workers right after the start barrier and
    /// **before** the job slot.
    stop: AtomicBool,
    /// The current phase's erased job: a pointer to a [`RawJob`] living
    /// in the coordinator's `run_rounds` frame, or null between phases.
    /// Published before the start barrier and read after it, so (like
    /// `round`) relaxed accesses are ordered by the barrier crossing —
    /// workers never touch a lock on the per-round hot path.
    job: AtomicPtr<RawJob>,
}

/// A persistent pool of `workers` round-synchronized threads.
///
/// Construct once (e.g. per [`Session`](crate::Session)), then call
/// [`Pool::run_rounds`] any number of times — each call is one phase,
/// possibly with a completely different state type. A pool of one
/// worker spawns no threads at all: every phase executes inline on the
/// calling thread with identical semantics (a panicking `step` simply
/// propagates).
pub struct Pool {
    workers: usize,
    shared: Option<Arc<Shared>>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.workers)
            .finish()
    }
}

/// Clears the job slot when a phase ends, including by unwind, so the
/// pool never retains a pointer into a dead stack frame.
struct JobGuard<'a>(&'a Shared);

impl Drop for JobGuard<'_> {
    fn drop(&mut self) {
        self.0.job.store(std::ptr::null_mut(), Ordering::Relaxed);
    }
}

impl Pool {
    /// Creates a pool of `workers` threads (none for `workers <= 1`).
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "pool needs at least one worker");
        if workers == 1 {
            return Pool {
                workers,
                shared: None,
                handles: Vec::new(),
            };
        }
        let shared = Arc::new(Shared {
            start: Barrier::new(workers + 1),
            done: Barrier::new(workers + 1),
            round: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            job: AtomicPtr::new(std::ptr::null_mut()),
        });
        let handles = (0..workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || loop {
                    shared.start.wait();
                    if shared.stop.load(Ordering::Relaxed) {
                        return;
                    }
                    let round = shared.round.load(Ordering::Relaxed);
                    // SAFETY: the job pointer was published before the
                    // start barrier released this worker (non-null for
                    // any released, non-stopped round) and the
                    // coordinator keeps the phase frame alive until
                    // after the done barrier (module docs).
                    let job = unsafe { &*shared.job.load(Ordering::Relaxed) };
                    // SAFETY: `raw_job_of` paired `call` with `data`'s
                    // closure type; the closure lives as the job does.
                    unsafe { (job.call)(job.data, index, round) };
                    shared.done.wait();
                })
            })
            .collect();
        Pool {
            workers,
            shared: Some(shared),
            handles,
        }
    }

    /// Number of workers (= threads for `workers > 1`).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs one phase: up to `max_rounds` synchronous rounds over
    /// `states`, one worker per state.
    ///
    /// Per round, every worker executes `step(worker_index, &mut state,
    /// round)` concurrently; the per-worker results — `Ok(report)` or
    /// `Err(panic_payload)` — are then passed, in worker order, to
    /// `control(round, results)`, which decides whether to continue.
    /// `results` drains one buffer that the phase keeps for all its
    /// rounds, so a round allocates nothing for its reports. A
    /// worker whose `step` panicked keeps participating in later rounds
    /// (its state may be logically inconsistent; callers that cannot
    /// tolerate that should return [`Control::Abort`], as the simulator
    /// does).
    ///
    /// Returns the final states plus `Some(value)` from
    /// [`Control::Stop`], or `None` if `max_rounds` elapsed without a
    /// stop.
    ///
    /// # Panics
    ///
    /// Panics if `states.len() != self.workers()`. Re-raises the
    /// payload of [`Control::Abort`], or a panic of `control` itself,
    /// after parking the workers — never deadlocks on a panicking
    /// round, and the pool remains usable for further phases.
    pub fn run_rounds<S, R, T, Step, Ctl>(
        &mut self,
        mut states: Vec<S>,
        max_rounds: u64,
        step: Step,
        mut control: Ctl,
    ) -> (Vec<S>, Option<T>)
    where
        S: Send,
        R: Send,
        Step: Fn(usize, &mut S, u64) -> R + Sync,
        Ctl: FnMut(u64, std::vec::Drain<'_, std::thread::Result<R>>) -> Control<T>,
    {
        assert_eq!(
            states.len(),
            self.workers,
            "one state per pool worker required"
        );
        let mut results: Vec<std::thread::Result<R>> = Vec::with_capacity(self.workers);
        let Some(shared) = &self.shared else {
            // Sequential fast path: no threads, no barriers, same
            // protocol (inline and barrier rounds coincide).
            for round in 0..max_rounds {
                results.push(Ok(step(0, &mut states[0], round)));
                match control(round, results.drain(..)) {
                    Control::Continue | Control::ContinueInline => {}
                    Control::Stop(t) => return (states, Some(t)),
                    Control::Abort(payload) => resume_unwind(payload),
                }
            }
            return (states, None);
        };

        let workers = self.workers;
        // One report slot per worker; uncontended Mutexes (each slot is
        // touched by exactly one worker and the coordinator, in
        // different barrier phases).
        let slots: Vec<Mutex<Option<std::thread::Result<R>>>> =
            (0..workers).map(|_| Mutex::new(None)).collect();
        // Disjoint-index access: worker `w` touches only `states[w]`.
        let states_ptr = SendPtr(states.as_mut_ptr());
        let slots = &slots;
        let step = &step;
        let job = move |worker: usize, round: u64| {
            // SAFETY: each worker index is used by exactly one thread
            // per round, and the coordinator does not touch `states`
            // between the start and done barriers.
            let state = unsafe { &mut *states_ptr.add(worker) };
            let report = catch_unwind(AssertUnwindSafe(|| step(worker, state, round)));
            *slots[worker].lock().expect("report slot") = Some(report);
        };
        let raw = raw_job_of(&job);
        shared
            .job
            .store(&raw as *const RawJob as *mut RawJob, Ordering::Relaxed);
        let _guard = JobGuard(shared);

        let mut outcome: Option<T> = None;
        let mut fatal: Option<Box<dyn std::any::Any + Send>> = None;
        let mut inline = false;
        for round in 0..max_rounds {
            if inline {
                // Inline round: the workers stay parked at the start
                // barrier while the coordinator — which has exclusive
                // access to all phase state between barrier crossings —
                // runs every worker's job itself, in worker order. The
                // next barrier release (of a later non-inline round or
                // the pool's shutdown) orders these writes for the
                // workers.
                for worker in 0..workers {
                    job(worker, round);
                }
            } else {
                shared.round.store(round, Ordering::Relaxed);
                shared.start.wait(); // send phase begins
                shared.done.wait(); // all jobs done, all effects visible
            }
            results.extend(slots.iter().map(|slot| {
                slot.lock()
                    .expect("report slot")
                    .take()
                    .expect("every worker posts a result per round")
            }));
            match catch_unwind(AssertUnwindSafe(|| control(round, results.drain(..)))) {
                Ok(Control::Continue) => inline = false,
                Ok(Control::ContinueInline) => inline = true,
                Ok(Control::Stop(t)) => {
                    outcome = Some(t);
                    break;
                }
                Ok(Control::Abort(payload)) | Err(payload) => {
                    fatal = Some(payload);
                    break;
                }
            }
        }
        // Workers are parked at the start barrier; the phase frame
        // (job, slots, states) may now be reclaimed.
        drop(_guard);
        if let Some(payload) = fatal {
            resume_unwind(payload);
        }
        (states, outcome)
    }
}

/// A raw pointer that may be shared across the pool's threads (the
/// disjoint-index protocol in [`Pool::run_rounds`] is what makes the
/// sharing sound).
#[derive(Clone, Copy)]
struct SendPtr<S>(*mut S);
// SAFETY: `S: Send`, and each worker touches only its own elements.
unsafe impl<S: Send> Send for SendPtr<S> {}
// SAFETY: as for `Send`.
unsafe impl<S: Send> Sync for SendPtr<S> {}

impl<S> SendPtr<S> {
    /// Offset accessor; going through `&self` (rather than field `.0`)
    /// keeps closures capturing the whole `SendPtr`, preserving its
    /// `Sync` impl under edition-2021 disjoint field capture.
    ///
    /// # Safety
    ///
    /// Same contract as [`std::ptr::mut_ptr::add`] plus the pool's
    /// disjoint-index protocol.
    unsafe fn add(&self, i: usize) -> *mut S {
        self.0.add(i)
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        if let Some(shared) = &self.shared {
            shared.stop.store(true, Ordering::Relaxed);
            shared.start.wait();
            for handle in self.handles.drain(..) {
                // Workers never unwind out of their loop (jobs catch
                // panics), so join errors are impossible in practice;
                // swallow rather than double-panic in drop.
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-worker results, as `control` receives them.
    type Results<'a, R> = std::vec::Drain<'a, std::thread::Result<R>>;

    /// Unwraps per-worker results for controls that expect no panics.
    fn oks<R>(results: Results<'_, R>) -> Vec<R> {
        results
            .map(|r| r.expect("no worker panic expected"))
            .collect()
    }

    /// The default panic disposition: abort on the first (lowest worker
    /// index) panic, otherwise hand back the reports.
    fn reports_or_abort<R, T>(results: Results<'_, R>) -> Result<Vec<R>, Control<T>> {
        let mut reports = Vec::with_capacity(results.len());
        for result in results {
            match result {
                Ok(report) => reports.push(report),
                Err(payload) => return Err(Control::Abort(payload)),
            }
        }
        Ok(reports)
    }

    /// Each worker folds `worker_index * round` into its accumulator:
    /// a deterministic quantity to compare across worker counts.
    fn accumulate(workers: usize, rounds: u64) -> (Vec<u64>, Option<u64>) {
        let states = vec![0u64; workers];
        let (states, out) = Pool::new(workers).run_rounds(
            states,
            rounds,
            |i, acc, round| {
                *acc += (i as u64 + 1) * (round + 1);
                *acc
            },
            |_round, _results| Control::<u64>::Continue,
        );
        (states, out)
    }

    #[test]
    fn pooled_matches_sequential_and_reuses_barriers_across_many_rounds() {
        // 200 rounds through the same barrier pair: reuse must be sound.
        let (seq, seq_out) = accumulate(1, 200);
        assert_eq!(seq_out, None);
        assert_eq!(seq[0], (1..=200u64).sum::<u64>());
        let (par, par_out) = accumulate(4, 200);
        assert_eq!(par_out, None);
        for (i, acc) in par.iter().enumerate() {
            assert_eq!(*acc, (i as u64 + 1) * (1..=200u64).sum::<u64>());
        }
    }

    #[test]
    fn stop_value_is_returned_and_states_come_back_in_worker_order() {
        let states: Vec<u64> = (0..5).collect();
        let (states, out) = Pool::new(5).run_rounds(
            states,
            1000,
            |_i, s, _round| {
                *s += 10;
                *s
            },
            |round, results| {
                // Results arrive in worker order regardless of timing.
                let reports = oks(results);
                for w in reports.windows(2) {
                    assert!(w[0] < w[1], "reports out of worker order");
                }
                if round == 2 {
                    Control::Stop(reports[0])
                } else {
                    Control::Continue
                }
            },
        );
        assert_eq!(out, Some(30));
        assert_eq!(states, vec![30, 31, 32, 33, 34]);
    }

    #[test]
    fn round_limit_yields_none() {
        let (states, out) = Pool::new(3).run_rounds(
            vec![(); 3],
            7,
            |_i, _s, round| round,
            |_round, _results| Control::<()>::Continue,
        );
        assert_eq!(states.len(), 3);
        assert_eq!(out, None);
    }

    #[test]
    fn zero_rounds_never_invokes_step() {
        let (states, out) = Pool::new(4).run_rounds(
            vec![0u32; 4],
            0,
            |_i, _s, _round| panic!("step must not run"),
            |_round, _results: Results<'_, ()>| Control::<()>::Continue,
        );
        assert_eq!(states, vec![0; 4]);
        assert_eq!(out, None);
    }

    #[test]
    fn worker_panic_propagates_without_deadlocking_the_barrier() {
        let result = std::panic::catch_unwind(|| {
            Pool::new(3).run_rounds(
                vec![0u64; 3],
                1000,
                |i, s, round| {
                    if i == 1 && round == 2 {
                        panic!("injected worker panic");
                    }
                    *s += 1;
                },
                |_round, results| match reports_or_abort::<_, ()>(results) {
                    Ok(_) => Control::Continue,
                    Err(abort) => abort,
                },
            )
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(msg.contains("injected worker panic"), "payload: {msg}");
    }

    #[test]
    fn lowest_worker_panic_wins_when_several_fire() {
        let result = std::panic::catch_unwind(|| {
            Pool::new(4).run_rounds(
                vec![(); 4],
                10,
                |i, _s, _round| panic!("worker {i} panicked"),
                |_round, results| match reports_or_abort::<(), ()>(results) {
                    Ok(_) => Control::Continue,
                    Err(abort) => abort,
                },
            )
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(msg, "worker 0 panicked");
    }

    /// The reason results (not just reports) go to `control`: a
    /// same-round event in a *lower* worker can outrank a panic in a
    /// higher one, exactly as a sequential scan of the workers' nodes
    /// would have encountered it first.
    #[test]
    fn control_can_let_a_lower_workers_report_outrank_a_higher_panic() {
        let (_, out) = Pool::new(3).run_rounds(
            vec![(); 3],
            10,
            |i, _s, _round| {
                if i == 2 {
                    panic!("higher worker panics");
                }
                i
            },
            |_round, results| {
                for result in results {
                    match result {
                        Ok(0) => return Control::Stop("worker 0 event wins"),
                        Ok(_) => {}
                        Err(payload) => return Control::Abort(payload),
                    }
                }
                Control::Continue
            },
        );
        assert_eq!(out, Some("worker 0 event wins"));
    }

    #[test]
    fn control_panic_shuts_the_pool_down_cleanly() {
        let result = std::panic::catch_unwind(|| {
            Pool::new(2).run_rounds(
                vec![0u8; 2],
                10,
                |_i, _s, _round| (),
                |round, _results| -> Control<()> {
                    if round == 1 {
                        panic!("control blew up");
                    }
                    Control::Continue
                },
            )
        });
        assert!(result.is_err());
    }

    /// The persistent-pool property the engine's `Session` relies on:
    /// one spawn, many phases, including phases of different state
    /// types and phases after an aborted (panicked) phase.
    #[test]
    fn one_pool_runs_many_phases_of_different_types() {
        let mut pool = Pool::new(3);
        // Phase 1: u64 accumulators.
        let (s1, out1) = pool.run_rounds(
            vec![0u64; 3],
            5,
            |i, s, r| {
                *s += i as u64 + r;
                *s
            },
            |round, results| {
                if round == 4 {
                    Control::Stop(oks(results))
                } else {
                    Control::Continue
                }
            },
        );
        assert_eq!(s1, vec![10, 15, 20]);
        assert_eq!(out1, Some(vec![10, 15, 20]));
        // Phase 2 (different state type): string builders.
        let (s2, out2) = pool.run_rounds(
            vec![String::new(); 3],
            3,
            |i, s, _r| {
                s.push((b'a' + i as u8) as char);
                s.len()
            },
            |_round, _results| Control::<()>::Continue,
        );
        assert_eq!(s2, vec!["aaa", "bbb", "ccc"]);
        assert_eq!(out2, None);
        // Phase 3: a panicking phase must not poison the pool...
        let panicked = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_rounds(
                vec![(); 3],
                10,
                |i, _s, _r| {
                    if i == 1 {
                        panic!("phase 3 worker panic");
                    }
                },
                |_round, results| match reports_or_abort::<(), ()>(results) {
                    Ok(_) => Control::Continue,
                    Err(abort) => abort,
                },
            )
        }));
        assert!(panicked.is_err());
        // ...phase 4 still runs on the same threads.
        let (s4, _) = pool.run_rounds(
            vec![1u32; 3],
            4,
            |_i, s, _r| {
                *s *= 2;
            },
            |_round, _results: Results<'_, ()>| Control::<()>::Continue,
        );
        assert_eq!(s4, vec![16, 16, 16]);
    }

    /// `ContinueInline` rounds run every worker's step on the
    /// coordinator thread (no barrier), interleave freely with barrier
    /// rounds, and leave per-worker state exactly as barrier rounds
    /// would.
    #[test]
    fn inline_rounds_run_on_the_coordinator_and_compose_with_barrier_rounds() {
        let main_thread = std::thread::current().id();
        // State: (accumulator, thread id of each observed round).
        let states: Vec<(u64, Vec<std::thread::ThreadId>)> = vec![(0, Vec::new()); 3];
        let (states, out) = Pool::new(3).run_rounds(
            states,
            8,
            |i, st, round| {
                st.0 += (i as u64 + 1) * (round + 1);
                st.1.push(std::thread::current().id());
                st.0
            },
            |round, results| {
                let reports = oks(results);
                assert_eq!(reports.len(), 3);
                if round == 7 {
                    Control::Stop(reports[0])
                } else if round % 2 == 0 {
                    Control::ContinueInline // odd rounds run inline
                } else {
                    Control::Continue
                }
            },
        );
        assert_eq!(out, Some((1..=8u64).sum::<u64>()));
        for (i, (acc, threads)) in states.iter().enumerate() {
            assert_eq!(*acc, (i as u64 + 1) * (1..=8u64).sum::<u64>());
            assert_eq!(threads.len(), 8);
            for (round, id) in threads.iter().enumerate() {
                // Rounds 1, 3, 5, 7 followed an even-round
                // ContinueInline decision: coordinator thread.
                if round % 2 == 1 {
                    assert_eq!(*id, main_thread, "round {round} must be inline");
                } else if round > 0 {
                    assert_ne!(*id, main_thread, "round {round} must be pooled");
                }
            }
        }
    }

    /// A panic inside an inline round propagates exactly like a worker
    /// panic (caught, reported in worker order, pool stays healthy).
    #[test]
    fn inline_round_panics_propagate_and_do_not_poison_the_pool() {
        let mut pool = Pool::new(2);
        let panicked = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_rounds(
                vec![(); 2],
                10,
                |i, _s, round| {
                    if round == 1 && i == 1 {
                        panic!("inline panic");
                    }
                },
                |_round, results| match reports_or_abort::<(), ()>(results) {
                    Ok(_) => Control::ContinueInline,
                    Err(abort) => abort,
                },
            )
        }));
        assert!(panicked.is_err());
        // The pool still runs a clean phase afterwards.
        let (s, _) = pool.run_rounds(
            vec![0u32; 2],
            3,
            |_i, s, _r| {
                *s += 1;
            },
            |_round, _results: Results<'_, ()>| Control::<()>::ContinueInline,
        );
        assert_eq!(s, vec![3, 3]);
    }
}

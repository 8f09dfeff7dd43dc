//! The freeze helper: one parked thread that runs half of each large
//! freeze, so a dirty refresh over a big domain uses a second core.
//!
//! A freeze at `D = 2^16` is almost all of a fresh query's time, and the
//! paper's post-processing splits cleanly in two (see
//! [`ldp_ranges::Join`]). [`FreezeHelper`] is the service's
//! [`ldp_ranges::Join`]: the caller posts the other half to the helper,
//! runs its own half, and then either waits for the helper to finish
//! the posted half or, if the helper has not started it, runs it itself.
//!
//! The helper is one persistent thread, spawned at the first freeze that
//! splits — so a service whose freezes never split never has one — and
//! joined when the service drops. A thread spawned per freeze costs more
//! than it saves (spawn plus join alone is tens of microseconds). Waking
//! a parked thread costs ≈ 20 µs at the median on a 2-vCPU VM and far
//! more in the tail, so a dirty refresh wakes the helper as its drain
//! begins ([`FreezeHelper::wake`]) and the helper spins for jobs until
//! the refresh ends ([`FreezeHelper::rest`]). A job the helper is too
//! late for runs on the caller, so a slow wake-up costs the split, never
//! more than the serial freeze.

use std::any::Any;
use std::cell::OnceCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle, Thread};
use std::time::{Duration, Instant};

use ldp_ranges::Join;

/// The half of a join the helper runs: the caller's borrowed closure,
/// its lifetime erased (see the SAFETY comment in [`FreezeHelper::join`]).
type Job = &'static mut (dyn FnMut() + Send);

/// What a job that panicked unwound with.
type Panic = Box<dyn Any + Send>;

/// The handoff's states. A join moves it from `IDLE` to `POSTED`
/// (caller), then either back to `IDLE` (the caller takes the job back)
/// or to `RUNNING` and `DONE` (helper) and back to `IDLE` (caller). A
/// drop moves it to `EXIT`.
const IDLE: u8 = 0;
const POSTED: u8 = 1;
const RUNNING: u8 = 2;
const DONE: u8 = 3;
const EXIT: u8 = 4;

/// How long the caller waits on the CPU for a running job before it
/// parks.
const CALLER_SPIN: Duration = Duration::from_micros(200);
/// How long an awake helper waits on the CPU for its next job before it
/// parks anyway: the gaps between one refresh's joins are far shorter,
/// and a refresh that woke it and never rested it costs no more.
const AWAKE_SPIN: Duration = Duration::from_micros(100);
/// Busy-wait rounds before a waiter starts yielding its CPU: a few
/// microseconds, after which a waiter that shares its CPU with the thread
/// it waits for must let that thread run.
const PAUSES: u32 = 256;

/// One round of waiting on the CPU: a pause for the first [`PAUSES`]
/// rounds, then a yield. The scheduler may put the caller and the helper
/// on one CPU, where a pure spin would hold off the very thread it waits
/// for.
fn pause(round: &mut u32) {
    if *round < PAUSES {
        *round += 1;
        std::hint::spin_loop();
    } else {
        thread::yield_now();
    }
}

/// The service's [`Join`]: runs `theirs` on a helper thread, spawned at
/// the first join or wake. If the spawn fails, every join runs both
/// halves on the caller, as [`ldp_ranges::SerialJoin`] does.
#[derive(Default)]
pub(crate) struct FreezeHelper {
    worker: OnceCell<Option<Worker>>,
}

/// The spawned helper thread and the handoff it shares with the caller.
struct Worker {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

struct Shared {
    /// `IDLE`, `POSTED`, `RUNNING`, `DONE` or `EXIT`. Whoever moves a
    /// job out of `POSTED` owns it; the slot carries what moves with it.
    state: AtomicU8,
    /// Set by [`FreezeHelper::wake`], cleared by [`FreezeHelper::rest`]:
    /// while set, the helper spins for its next job instead of parking.
    awake: AtomicBool,
    slot: Mutex<Slot>,
}

#[derive(Default)]
struct Slot {
    /// The posted half, until its owner takes it.
    job: Option<Job>,
    /// The caller, for the helper to unpark when the job is done.
    caller: Option<Thread>,
    /// What the job panicked with on the helper, for the caller.
    panic: Option<Panic>,
}

impl Shared {
    /// The slot. Poison is recovered from: nothing runs under this lock
    /// that can leave the slot half-written.
    fn slot(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Moves the job out of `POSTED` into `to`: true if this side won it.
    fn claim(&self, to: u8) -> bool {
        self.state
            .compare_exchange(POSTED, to, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }
}

impl Worker {
    fn spawn() -> Option<Self> {
        let shared = Arc::new(Shared {
            state: AtomicU8::new(IDLE),
            awake: AtomicBool::new(false),
            slot: Mutex::new(Slot::default()),
        });
        let theirs = Arc::clone(&shared);
        let thread = thread::Builder::new()
            .name("ldp-freeze".into())
            .spawn(move || run(&theirs))
            .ok()?;
        Some(Self {
            shared,
            thread: Some(thread),
        })
    }

    fn unpark(&self) {
        if let Some(thread) = &self.thread {
            thread.thread().unpark();
        }
    }
}

/// The helper thread's loop: claim a posted job, run it, hand back how
/// it ended; between jobs spin while awake and park otherwise, until the
/// service drops.
fn run(shared: &Shared) {
    let (mut since, mut round) = (Instant::now(), 0);
    loop {
        match shared.state.load(Ordering::Acquire) {
            EXIT => return,
            POSTED if shared.claim(RUNNING) => {
                let (job, caller) = {
                    let mut slot = shared.slot();
                    (slot.job.take(), slot.caller.take())
                };
                if let Some(job) = job {
                    if let Err(panic) = panic::catch_unwind(AssertUnwindSafe(job)) {
                        shared.slot().panic = Some(panic);
                    }
                }
                shared.state.store(DONE, Ordering::Release);
                if let Some(caller) = caller {
                    caller.unpark();
                }
                (since, round) = (Instant::now(), 0);
                continue;
            }
            _ => {}
        }
        if shared.awake.load(Ordering::Acquire) && since.elapsed() < AWAKE_SPIN {
            pause(&mut round);
        } else {
            // A stale unpark token makes this return at once; the loop
            // looks at the state again either way.
            thread::park();
            (since, round) = (Instant::now(), 0);
        }
    }
}

impl FreezeHelper {
    /// The helper, spawned if this is the first call.
    fn worker(&self) -> Option<&Worker> {
        self.worker.get_or_init(Worker::spawn).as_ref()
    }

    /// Has the helper spin for jobs until [`FreezeHelper::rest`],
    /// spawning it first if need be: a refresh calls this as its drain
    /// begins, so the helper's wake-up overlaps the drain and the
    /// freeze's first join finds it running.
    pub(crate) fn wake(&self) {
        if let Some(worker) = self.worker() {
            worker.shared.awake.store(true, Ordering::Release);
            worker.unpark();
        }
    }

    /// Lets the helper park once it is out of work.
    pub(crate) fn rest(&self) {
        if let Some(worker) = self.worker.get().and_then(Option::as_ref) {
            worker.shared.awake.store(false, Ordering::Release);
        }
    }
}

impl Join for FreezeHelper {
    fn join(&self, mine: &mut dyn FnMut(), theirs: &mut (dyn FnMut() + Send)) {
        let Some(worker) = self.worker() else {
            mine();
            theirs();
            return;
        };
        let shared = &worker.shared;
        // `FreezeHelper` is `!Sync` (its `OnceCell`), so every join comes
        // from one thread: a join already under way here is this one,
        // re-entered from `mine`, and runs its halves in place.
        if shared.state.load(Ordering::Acquire) != IDLE {
            mine();
            theirs();
            return;
        }
        let caller = thread::current();
        // SAFETY: only the lifetime is erased; the type is unchanged. The
        // job borrows the caller's stack, and only the side that claims
        // it out of `POSTED` uses it: the helper until it stores `DONE`,
        // or this function itself. This function does not return — nor
        // unwind, since both halves run under `catch_unwind` and nothing
        // else here panics — before it has claimed the job back or seen
        // `DONE`, so the borrow outlives every use.
        let job: Job = unsafe {
            std::mem::transmute::<&mut (dyn FnMut() + Send), &'static mut (dyn FnMut() + Send)>(
                theirs,
            )
        };
        {
            let mut slot = shared.slot();
            slot.job = Some(job);
            slot.caller = Some(caller);
        }
        shared.state.store(POSTED, Ordering::Release);
        worker.unpark();
        let mine = panic::catch_unwind(AssertUnwindSafe(mine));
        let theirs = if shared.claim(IDLE) {
            // The helper has not started it: run it here.
            let job = {
                let mut slot = shared.slot();
                slot.caller = None;
                slot.job.take()
            };
            job.map_or(Ok(()), |job| panic::catch_unwind(AssertUnwindSafe(job)))
        } else {
            let (started, mut round) = (Instant::now(), 0);
            while shared.state.load(Ordering::Acquire) != DONE {
                if started.elapsed() < CALLER_SPIN {
                    pause(&mut round);
                } else {
                    thread::park();
                }
            }
            let panic = shared.slot().panic.take();
            shared.state.store(IDLE, Ordering::Release);
            panic.map_or(Ok(()), Err)
        };
        for outcome in [mine, theirs] {
            if let Err(panic) = outcome {
                panic::resume_unwind(panic);
            }
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.shared.state.store(EXIT, Ordering::Release);
        self.unpark();
        if let Some(thread) = self.thread.take() {
            // The loop itself never panics (each job runs under
            // `catch_unwind`), so there is nothing to propagate.
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `mine` only once `theirs` has started, so `theirs` runs on
    /// the helper rather than being taken back; returns the name of the
    /// thread `theirs` ran on.
    fn join_on_helper(
        helper: &FreezeHelper,
        mine: &mut dyn FnMut(),
        theirs: &mut (dyn FnMut() + Send),
    ) -> Option<String> {
        let started = AtomicBool::new(false);
        let mut ran_on = None;
        helper.join(
            &mut || {
                let waiting = Instant::now();
                while !started.load(Ordering::Acquire) {
                    assert!(
                        waiting.elapsed() < Duration::from_secs(10),
                        "the helper never ran"
                    );
                    std::hint::spin_loop();
                }
                mine();
            },
            &mut || {
                ran_on = thread::current().name().map(str::to_owned);
                started.store(true, Ordering::Release);
                theirs();
            },
        );
        ran_on
    }

    #[test]
    fn both_halves_run_and_their_writes_are_seen() {
        let helper = FreezeHelper::default();
        for round in 0..200u64 {
            let (mut a, mut b) = (vec![0u64; 64], vec![0u64; 64]);
            if round % 2 == 0 {
                helper.wake();
            }
            let ran_on = join_on_helper(
                &helper,
                &mut || a.iter_mut().for_each(|x| *x = round),
                &mut || b.iter_mut().for_each(|x| *x = round + 1),
            );
            helper.rest();
            assert_eq!(ran_on.as_deref(), Some("ldp-freeze"));
            assert!(a.iter().all(|&x| x == round) && b.iter().all(|&x| x == round + 1));
            // Either half may run where it lands, helper or caller.
            helper.join(&mut || a[0] = 0, &mut || b[0] = 0);
            assert_eq!((a[0], b[0]), (0, 0));
        }
    }

    #[test]
    fn a_panic_on_either_side_reaches_the_caller_after_both_finish() {
        let helper = FreezeHelper::default();
        for helper_panics in [true, false] {
            let mut other_ran = false;
            let unwound = panic::catch_unwind(AssertUnwindSafe(|| {
                if helper_panics {
                    join_on_helper(&helper, &mut || other_ran = true, &mut || {
                        panic!("helper side")
                    });
                } else {
                    join_on_helper(&helper, &mut || panic!("caller side"), &mut || {
                        other_ran = true
                    });
                }
            }));
            let message = unwound.expect_err("the panic propagates");
            let expected = if helper_panics {
                "helper side"
            } else {
                "caller side"
            };
            assert_eq!(message.downcast_ref::<&str>(), Some(&expected));
            assert!(other_ran, "the other half ran to its end");
        }
        // The helper survives its job's panic and keeps serving.
        let mut ran = false;
        let ran_on = join_on_helper(&helper, &mut || {}, &mut || ran = true);
        assert!(ran && ran_on.as_deref() == Some("ldp-freeze"));
    }

    #[test]
    fn a_join_inside_a_join_runs_in_place() {
        let helper = FreezeHelper::default();
        let (mut inner, mut outer) = (false, false);
        helper.join(
            &mut || helper.join(&mut || inner = true, &mut || {}),
            &mut || outer = true,
        );
        assert!(inner && outer);
    }
}

//! Barrier with reduction: the BSP synchronisation point.
//!
//! Each worker ends a superstep by calling [`SyncPoint::arrive`] with its
//! local contribution (messages sent, whether all its subgraphs voted to
//! halt). The last arriver aggregates the contributions, stores the global
//! [`Aggregate`], resets the accumulators and wakes everyone — one blocking
//! rendezvous per superstep, exactly the structure whose wait time the paper
//! reports as "Sync Overhead" (Fig. 7b/7d).

use parking_lot::{Condvar, Mutex};
use std::any::Any;

/// Per-worker contribution folded at the barrier.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Contribution {
    /// Messages this worker emitted during the phase.
    pub msgs_sent: u64,
    /// True when every subgraph owned by this worker voted to halt.
    pub all_halted: bool,
}

/// Global reduction of all workers' contributions.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Aggregate {
    /// Total messages emitted across the cluster during the phase.
    pub total_msgs: u64,
    /// True when every subgraph in the cluster voted to halt.
    pub all_halted: bool,
}

impl Aggregate {
    /// The fold's identity: nothing sent, everyone halted.
    pub const EMPTY: Aggregate = Aggregate {
        total_msgs: 0,
        all_halted: true,
    };

    /// Fold one worker's contribution into this aggregate — the barrier
    /// reduction, shared by [`SyncPoint::arrive`] and the TCP coordinator.
    pub fn absorb(self, c: Contribution) -> Aggregate {
        Aggregate {
            total_msgs: self.total_msgs + c.msgs_sent,
            all_halted: self.all_halted && c.all_halted,
        }
    }

    /// BSP termination rule: stop when nobody sent anything and everyone
    /// voted to halt.
    pub fn should_stop(&self) -> bool {
        self.total_msgs == 0 && self.all_halted
    }
}

/// Panic message used when a barrier is poisoned by a dying peer. The job
/// driver treats panics carrying this text as *cascade* failures
/// (secondary deaths caused by the primary one; see [`payload_is_cascade`])
/// and names the original panic when re-surfacing errors.
pub(crate) const POISON_MSG: &str = "sync point poisoned: a peer worker died";

struct State {
    arrived: usize,
    generation: u64,
    /// This round's contributions folded so far.
    acc: Aggregate,
    poisoned: bool,
    result: Aggregate,
}

/// Reusable barrier-with-reduction for `n` workers. See module docs.
pub struct SyncPoint {
    n: usize,
    state: Mutex<State>,
    cv: Condvar,
}

impl SyncPoint {
    /// A sync point for `n` workers (`n ≥ 1`).
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "need at least one worker");
        SyncPoint {
            n,
            state: Mutex::new(State {
                arrived: 0,
                generation: 0,
                acc: Aggregate::EMPTY,
                poisoned: false,
                result: Aggregate::EMPTY,
            }),
            cv: Condvar::new(),
        }
    }

    /// Number of participating workers.
    pub fn workers(&self) -> usize {
        self.n
    }

    /// Block until all `n` workers arrive; returns the folded [`Aggregate`].
    ///
    /// Panics (with [`POISON_MSG`]) if the sync point was [`SyncPoint::poison`]ed
    /// — a peer worker died, so the full complement can never arrive and
    /// waiting would deadlock.
    pub fn arrive(&self, c: Contribution) -> Aggregate {
        let mut s = self.state.lock();
        if s.poisoned {
            drop(s);
            panic!("{POISON_MSG}");
        }
        s.acc = s.acc.absorb(c);
        s.arrived += 1;
        if s.arrived == self.n {
            s.result = std::mem::replace(&mut s.acc, Aggregate::EMPTY);
            s.arrived = 0;
            s.generation += 1;
            self.cv.notify_all();
            s.result
        } else {
            let gen = s.generation;
            while s.generation == gen {
                self.cv.wait(&mut s);
                if s.poisoned {
                    drop(s);
                    panic!("{POISON_MSG}");
                }
            }
            s.result
        }
    }

    /// Mark the sync point dead and wake every waiter: their `arrive` calls
    /// panic instead of deadlocking on a worker that will never show up.
    pub fn poison(&self) {
        let mut s = self.state.lock();
        s.poisoned = true;
        self.cv.notify_all();
    }

    /// Pure barrier: arrive with an empty contribution.
    pub fn barrier(&self) {
        self.arrive(Contribution {
            msgs_sent: 0,
            all_halted: true,
        });
    }
}

/// RAII guard a worker holds for its whole run: if the worker unwinds (an
/// injected fault or a real bug), `Drop` poisons the sync point so peers
/// blocked at the barrier die promptly instead of deadlocking. A normal
/// return drops the guard without poisoning.
pub struct PoisonOnPanic<'a>(pub &'a SyncPoint);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// Unwrap a worker thread's join result, resurfacing which partition's
/// worker panicked.
///
/// A bare `handle.join().unwrap()` loses the panic's origin: the driver
/// thread reports `Any { .. }` with no hint of *which* of the k workers
/// died. This helper re-panics with the partition id (and the panic's
/// message when it was a string), so a failing run names its straggler —
/// pair it with the flight-recorder dump the dying worker already wrote to
/// stderr. Takes the `join()` result rather than the handle so it works
/// for plain and scoped threads alike: `join_partition(p, h.join())`.
pub fn join_partition<T>(partition: usize, joined: std::thread::Result<T>) -> T {
    match joined {
        Ok(v) => v,
        Err(payload) => {
            let msg = panic_message(payload.as_ref());
            panic!("worker for partition {partition} panicked: {msg}");
        }
    }
}

/// The text of a panic payload (`panic!` carries a `String` or a
/// `&'static str`), or a placeholder for any other payload type.
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&'static str>().copied())
        .unwrap_or("non-string panic payload")
}

/// True when a panic payload is a *cascade* failure — a worker that died
/// only because a peer died first (poisoned barrier or closed channel).
/// The driver names the primary death, never a cascade.
pub(crate) fn payload_is_cascade(payload: &(dyn Any + Send)) -> bool {
    panic_message(payload).contains("a peer worker died")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_worker_reduction() {
        let sp = SyncPoint::new(1);
        let agg = sp.arrive(Contribution {
            msgs_sent: 3,
            all_halted: false,
        });
        assert_eq!(agg.total_msgs, 3);
        assert!(!agg.all_halted);
        assert!(!agg.should_stop());
        // Reusable: accumulators were reset.
        let agg2 = sp.arrive(Contribution {
            msgs_sent: 0,
            all_halted: true,
        });
        assert!(agg2.should_stop());
    }

    #[test]
    fn contributions_fold_like_the_sync_point() {
        let agg = Aggregate::EMPTY
            .absorb(Contribution {
                msgs_sent: 2,
                all_halted: true,
            })
            .absorb(Contribution {
                msgs_sent: 5,
                all_halted: false,
            });
        assert_eq!(agg.total_msgs, 7);
        assert!(!agg.all_halted);
        let agg = Aggregate::EMPTY.absorb(Contribution {
            msgs_sent: 0,
            all_halted: true,
        });
        assert!(agg.should_stop());
        // The barrier folds the same way.
        let sp = SyncPoint::new(1);
        assert_eq!(
            sp.arrive(Contribution {
                msgs_sent: 7,
                all_halted: false
            }),
            Aggregate::EMPTY.absorb(Contribution {
                msgs_sent: 7,
                all_halted: false
            })
        );
    }

    #[test]
    fn panic_payloads_decode_to_their_text() {
        let owned: Box<dyn Any + Send> = Box::new(String::from("owned"));
        let fixed: Box<dyn Any + Send> = Box::new("static");
        let other: Box<dyn Any + Send> = Box::new(7u8);
        assert_eq!(panic_message(owned.as_ref()), "owned");
        assert_eq!(panic_message(fixed.as_ref()), "static");
        assert_eq!(panic_message(other.as_ref()), "non-string panic payload");
        let cascade: Box<dyn Any + Send> = Box::new(POISON_MSG);
        assert!(payload_is_cascade(cascade.as_ref()));
        assert!(!payload_is_cascade(owned.as_ref()));
    }

    #[test]
    fn multi_worker_fold_and_broadcast() {
        let sp = Arc::new(SyncPoint::new(4));
        let handles: Vec<_> = (0..4u64)
            .map(|i| {
                let sp = sp.clone();
                std::thread::spawn(move || {
                    sp.arrive(Contribution {
                        msgs_sent: i,
                        all_halted: i != 2,
                    })
                })
            })
            .collect();
        for (p, h) in handles.into_iter().enumerate() {
            let agg = join_partition(p, h.join());
            assert_eq!(agg.total_msgs, 6);
            assert!(!agg.all_halted);
        }
    }

    #[test]
    fn many_generations_stay_in_lockstep() {
        let sp = Arc::new(SyncPoint::new(3));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let sp = sp.clone();
                std::thread::spawn(move || {
                    let mut seen = Vec::new();
                    for round in 0..100u64 {
                        let agg = sp.arrive(Contribution {
                            msgs_sent: round,
                            all_halted: true,
                        });
                        seen.push(agg.total_msgs);
                    }
                    seen
                })
            })
            .collect();
        let expect: Vec<u64> = (0..100u64).map(|r| r * 3).collect();
        for (p, h) in handles.into_iter().enumerate() {
            assert_eq!(join_partition(p, h.join()), expect);
        }
    }

    #[test]
    fn barrier_is_just_an_empty_arrive() {
        let sp = Arc::new(SyncPoint::new(2));
        let sp2 = sp.clone();
        let t = std::thread::spawn(move || sp2.barrier());
        sp.barrier();
        join_partition(1, t.join());
    }

    #[test]
    fn poison_wakes_waiters_and_fails_future_arrivals() {
        let sp = Arc::new(SyncPoint::new(2));
        let waiter = {
            let sp = sp.clone();
            std::thread::spawn(move || sp.barrier())
        };
        // Give the waiter time to block, then poison instead of arriving.
        std::thread::sleep(std::time::Duration::from_millis(20));
        sp.poison();
        let err = waiter.join().expect_err("waiter must panic, not hang");
        assert!(err
            .downcast_ref::<String>()
            .is_some_and(|m| m.contains("poisoned")));
        // Later arrivals fail fast too.
        let late = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sp.barrier()));
        assert!(late.is_err());
    }

    #[test]
    fn poison_on_panic_guard_only_fires_during_unwind() {
        let sp = Arc::new(SyncPoint::new(2));
        {
            let _guard = PoisonOnPanic(&sp);
        }
        // Clean drop: not poisoned, a 2-party barrier still works.
        let sp2 = sp.clone();
        let t = std::thread::spawn(move || sp2.barrier());
        sp.barrier();
        join_partition(1, t.join());

        let sp3 = sp.clone();
        let dead = std::thread::spawn(move || {
            let _guard = PoisonOnPanic(&sp3);
            panic!("worker bug");
        })
        .join();
        assert!(dead.is_err());
        let late = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sp.barrier()));
        assert!(late.is_err(), "unwinding drop must poison");
    }

    #[test]
    fn join_partition_names_the_dead_worker() {
        let ok = std::thread::spawn(|| 42);
        assert_eq!(join_partition(0, ok.join()), 42);

        let dead = std::thread::spawn(|| panic!("inbox corrupted")).join();
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| join_partition(3, dead)))
                .expect_err("must re-panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .expect("re-panic carries a String");
        assert!(msg.contains("partition 3"), "{msg}");
        assert!(msg.contains("inbox corrupted"), "{msg}");
    }
}

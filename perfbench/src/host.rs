//! The host clock the simulator's own cost is measured with: on-CPU time
//! of the calling thread. The simulation runs on one thread, so this is
//! its whole cost, and unlike wall time it does not count the time the
//! thread sat descheduled behind other work on a shared host.

use std::time::Duration;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod imp {
    use std::time::Duration;

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }

    /// `CLOCK_THREAD_CPUTIME_ID` on Linux.
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    pub fn thread_cpu() -> Duration {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
        // fields on 64-bit Linux) for the whole call, and the clock id is
        // a valid Linux clock, so libc writes only inside `ts`.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
        Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod imp {
    use std::sync::OnceLock;
    use std::time::{Duration, Instant};

    /// Wall time since first use, where no thread CPU clock is wired up.
    pub fn thread_cpu() -> Duration {
        static START: OnceLock<Instant> = OnceLock::new();
        START.get_or_init(Instant::now).elapsed()
    }
}

/// The host clock's current reading.
pub fn now() -> Duration {
    imp::thread_cpu()
}

/// Host time spent since `start` (a reading of [`now`]).
pub fn since(start: Duration) -> Duration {
    now().saturating_sub(start)
}

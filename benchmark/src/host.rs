//! Host-side measurements: this thread's CPU time and the process's peak
//! resident set.

use std::ffi::{c_int, c_long};

/// This thread's CPU time, in nanoseconds (`CLOCK_THREAD_CPUTIME_ID`).
///
/// `/proc/thread-self/schedstat` exposes the same counter, but the kernel
/// folds the running slice into it only at scheduler ticks, so a thread
/// reading its own entry sees 4 ms steps (measured on a 2-core x86-64
/// Linux 6.18 host) — too coarse for set-up phases of a few milliseconds.
/// `clock_gettime` adds the running slice before it answers.
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // Linux) for the whole call, and the clock id is the Linux constant.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A fixed CPU kernel owned by the benchmark, timed between the configs of
/// a run so host times can be read against the median of its readings. On
/// a shared host the CPU time of the same work drifts by 10% and more over
/// minutes; a sustained slowdown slows this kernel too, so the ratio
/// cancels part of it.
///
/// It mixes the simulator's two costs: a dependent walk over a 16 MiB
/// single-cycle permutation (cache misses) and integer hashing per hop.
/// It calls no repository code, so no change to the simulator moves it.
pub struct RefKernel {
    next: Vec<u32>,
}

impl RefKernel {
    const LEN: usize = 1 << 22;
    const HOPS: u32 = 300_000;

    /// Builds the permutation (Sattolo's shuffle, fixed xorshift seed).
    pub fn new() -> Self {
        let mut next: Vec<u32> = (0..Self::LEN as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..Self::LEN).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        Self { next }
    }

    /// CPU ns per hop of one pass.
    pub fn ns_per_hop(&self) -> f64 {
        let start = thread_cpu_ns();
        let (mut at, mut h) = (0u32, 0u64);
        for _ in 0..Self::HOPS {
            at = self.next[at as usize];
            h = h
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(u64::from(at));
            for k in 0..20 {
                h ^= h >> 13;
                h = h.wrapping_add(k);
            }
        }
        std::hint::black_box(h);
        (thread_cpu_ns() - start) as f64 / f64::from(Self::HOPS)
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb as f64 / 1024.0
}

//! The environment every measurement shares: as many CPUs as the workload
//! has driving sessions, and one malloc arena.
//!
//! **One CPU per session.** On the two-vCPU sandbox a wake-up that crosses
//! cores costs 50–150 µs and flips between a fast and a slow mode for minutes
//! at a time: identical one-session runs of `paper_local` spread over both
//! cores differed by ±30 %. With the whole federation of a one-session
//! workload on one CPU every hand-off is a context switch, the same
//! statements cost 2.5x less and repeat within a few percent; waiting still
//! overlaps (`paper_wan`), CPU work does not spread over cores. `sessions_rw`
//! gets two CPUs, so that its two sessions really run at the same time and
//! meet on the shared locks.
//!
//! **One arena.** glibc otherwise hands each of the federation's short-lived
//! threads an arena of its own and the peak RSS of identical `star_*` runs
//! ranged from 49 to 70 MiB; with one arena it repeats within 2 % (and is
//! half as large).

#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod imp {
    /// glibc's `cpu_set_t`: 1024 bits.
    type CpuSet = [u64; 16];
    /// `M_ARENA_MAX` of `<malloc.h>`.
    const M_ARENA_MAX: i32 = -8;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
        fn mallopt(param: i32, value: i32) -> i32;
    }

    pub fn pin(cpus: usize) -> Option<usize> {
        let mut allowed: CpuSet = [0; 16];
        let size = std::mem::size_of::<CpuSet>();
        // SAFETY: `allowed` is a writable buffer of exactly `size` bytes, and
        // pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
            return None;
        }
        let mut keep: CpuSet = [0; 16];
        let mut kept = 0;
        for cpu in 0..size * 8 {
            if kept < cpus && allowed[cpu / 64] & (1 << (cpu % 64)) != 0 {
                keep[cpu / 64] |= 1 << (cpu % 64);
                kept += 1;
            }
        }
        // SAFETY: `keep` is a readable buffer of exactly `size` bytes.
        (unsafe { sched_setaffinity(0, size, &keep) } == 0).then_some(kept)
    }

    pub fn one_malloc_arena() -> bool {
        // SAFETY: `mallopt` only stores the limit; no other thread exists yet.
        unsafe { mallopt(M_ARENA_MAX, 1) == 1 }
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
mod imp {
    pub fn pin(_cpus: usize) -> Option<usize> {
        None
    }

    pub fn one_malloc_arena() -> bool {
        false
    }
}

/// Restricts this thread — call it before any other is spawned, they inherit
/// the restriction — to the first `cpus` CPUs it may use, and the allocator
/// to one arena. Returns how many CPUs the process is now pinned to; `None`
/// where the platform cannot do either (timings will be noisier).
pub fn enter_bench_environment(cpus: usize) -> Option<usize> {
    let arena = imp::one_malloc_arena();
    imp::pin(cpus).filter(|_| arena)
}

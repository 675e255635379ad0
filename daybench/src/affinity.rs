//! Pinning the benchmark process to one CPU.
//!
//! On a virtual machine, a thread woken on an idle virtual CPU waits for
//! the host to run that CPU again, and how long depends on the host's other
//! load. With every thread on one CPU, one of them is always runnable
//! during a day, so hand-offs between the client, the transport and the
//! worker are plain context switches and a day's wall time equals the CPU
//! time it used.

// The two calls are libc's, which the standard library already links.
mod sys {
    /// `cpu_set_t`: 1024 bits.
    pub type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    pub fn get() -> Option<CpuSet> {
        let mut mask = [0u64; 16];
        // SAFETY: `mask` is a writable `cpu_set_t` of the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
        (rc == 0).then_some(mask)
    }

    pub fn set(mask: &CpuSet) -> bool {
        // SAFETY: `mask` is a readable `cpu_set_t` of the size passed.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) == 0 }
    }
}

/// Pin the calling thread, and every thread it spawns afterwards, to the
/// highest-numbered CPU it may run on (on many systems CPU 0 takes more of
/// the device interrupts). Returns that CPU, or `None` when the affinity
/// could not be read or set.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mask = sys::get()?;
    let cpu = (0..mask.len() * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    sys::set(&one).then_some(cpu)
}

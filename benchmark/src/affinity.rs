//! Pin the whole benchmark — this process, its threads, and every
//! `serve` it spawns, which inherits the mask — to **one CPU**.
//!
//! On the two-vCPU reference host identical unpinned runs differ by
//! 15–30 %: where the scheduler puts the client, the server's workers
//! and its per-query threads decides how many requests pay a cross-vCPU
//! wake-up, and a virtual CPU that went idle is slow to come back.
//! Pinned, the same runs agree within about a percent (CALIBRATION.md).
//! The price is part of the definition: `serve` sees
//! `available_parallelism() == 1`, so it never takes its parallel
//! routes and `/batch` does not fan out. Parallel speed-up needs a
//! quiet multi-core runner and is left to a later issue.

/// Words of the kernel's `cpu_set_t` (1024 bits).
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restrict the calling thread (call it before any other thread exists)
/// to the lowest-numbered CPU it is allowed on — the one that usually
/// also takes the block device's interrupts, which keeps fsync wake-ups
/// local. Returns that CPU's number.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte
    // length passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = mask
        .iter()
        .enumerate()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| i * 64 + word.trailing_zeros() as usize)
        .ok_or("empty CPU affinity mask")?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the byte length passed;
    // the kernel only reads it.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let _ = MASK_WORDS;
    Err("CPU pinning is only implemented for Linux".to_owned())
}

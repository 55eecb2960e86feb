//! Which hardware threads the calling thread, and the threads it goes
//! on to spawn, may run on.
//!
//! `std` links `libc`, so the two declarations below resolve at link
//! time without a dependency (the idiom of `crates/epoll`).

/// Words of the kernel's `cpu_set_t` (1024 hardware threads).
const WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The hardware threads the calling thread may run on, ascending.
pub fn allowed() -> Vec<usize> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a live buffer of exactly the size passed; pid 0
    // is the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    assert!(
        rc == 0,
        "sched_getaffinity: {}",
        std::io::Error::last_os_error()
    );
    (0..WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Confine the calling thread to `cpus`; threads it spawns from now on
/// inherit that, threads already running keep what they had.
pub fn confine(cpus: &[usize]) {
    let mut mask = [0u64; WORDS];
    for cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live buffer of exactly the size passed; the
    // kernel copies it before returning.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    assert!(
        rc == 0,
        "sched_setaffinity({cpus:?}): {}",
        std::io::Error::last_os_error()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_confined_thread_hands_its_confinement_to_the_threads_it_spawns() {
        // On a thread of its own, so the test harness keeps its threads.
        std::thread::spawn(|| {
            let all = allowed();
            assert!(!all.is_empty());
            confine(&all[..1]);
            assert_eq!(allowed(), all[..1]);
            assert_eq!(std::thread::spawn(allowed).join().unwrap(), all[..1]);
            confine(&all);
            assert_eq!(allowed(), all);
        })
        .join()
        .unwrap();
    }
}

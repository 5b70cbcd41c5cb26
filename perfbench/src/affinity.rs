//! Keeps the server and its load on one CPU while the benchmark measures.
//!
//! On a small shared virtual machine, a request that hands off between
//! threads on different virtual CPUs waits for the host to run the other
//! CPU, and that wait varies run to run by several times. With every
//! thread of the run on one CPU, hand-offs are plain context switches and
//! the figures describe the program. Threads inherit the affinity of the
//! thread that spawns them, so pinning the main thread before the server
//! starts pins the server's threads too.

use std::os::raw::c_int;

/// `cpu_set_t` of the C library: 1024 bits.
const WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mask([u64; WORDS]);

impl Mask {
    fn first(&self) -> Option<usize> {
        self.0
            .iter()
            .enumerate()
            .find(|(_, w)| **w != 0)
            .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)
    }

    pub fn only(cpu: usize) -> Mask {
        let mut m = [0u64; WORDS];
        m[cpu / 64] = 1 << (cpu % 64);
        Mask(m)
    }
}

/// The calling thread's CPU mask.
pub fn current() -> Option<Mask> {
    let mut m = [0u64; WORDS];
    // SAFETY: `m` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&m), m.as_mut_ptr()) };
    (rc == 0).then_some(Mask(m))
}

/// Sets the calling thread's CPU mask; false if the system refused.
pub fn set(mask: &Mask) -> bool {
    // SAFETY: the pointer covers exactly the size passed and is only read;
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask.0), mask.0.as_ptr()) == 0 }
}

/// Pins the calling thread to the first CPU it may run on. Returns that
/// CPU and the mask to restore, or `None` when affinity is unavailable.
pub fn pin_first() -> Option<(usize, Mask)> {
    let before = current()?;
    let cpu = before.first()?;
    set(&Mask::only(cpu)).then_some((cpu, before))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_cpu_of_a_mask() {
        assert_eq!(Mask::only(0).first(), Some(0));
        assert_eq!(Mask::only(70).first(), Some(70));
        assert_eq!(Mask([0; WORDS]).first(), None);
    }

    #[test]
    fn pin_and_restore() {
        let before = current().expect("affinity is readable");
        let handle = std::thread::spawn(move || {
            let (cpu, old) = pin_first().expect("pinning is allowed");
            assert_eq!(current(), Some(Mask::only(cpu)));
            // A thread spawned now inherits the pin.
            let child = std::thread::spawn(current).join().expect("child runs");
            assert_eq!(child, Some(Mask::only(cpu)));
            assert!(set(&old));
            current()
        });
        assert_eq!(handle.join().expect("thread runs"), Some(before));
    }
}

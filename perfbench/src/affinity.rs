//! Rotating a single-thread workload over the CPUs it may run on.
//!
//! The benchmark machine's CPUs do not keep one speed: each switches
//! between a fast and a slow regime that lasts from seconds to minutes,
//! not always at the same time as the other, and the kernel keeps a busy
//! thread on the CPU it started on. A single-thread run left alone
//! therefore measures one CPU's regime. Pinning successive repetitions to
//! each allowed CPU in turn makes every run sample all of them.

/// Pins the calling thread to one allowed CPU at a time, and restores the
/// thread's original CPU set when dropped.
pub struct Rotation {
    original: sys::Mask,
    cpus: Vec<usize>,
}

impl Rotation {
    /// The CPUs the calling thread may run on, or `None` when there is
    /// only one or the set cannot be read.
    pub fn new() -> Option<Rotation> {
        let original = sys::get()?;
        let cpus: Vec<usize> = (0..sys::CPUS).filter(|&c| sys::has(&original, c)).collect();
        (cpus.len() > 1).then_some(Rotation { original, cpus })
    }

    /// How many CPUs the rotation covers.
    pub fn cpu_count(&self) -> usize {
        self.cpus.len()
    }

    /// Pins the calling thread to the `k`-th CPU of the rotation (modulo
    /// its length). Returns whether the kernel accepted it.
    pub fn pin(&self, k: usize) -> bool {
        sys::set(&sys::only(self.cpus[k % self.cpus.len()]))
    }
}

impl Drop for Rotation {
    fn drop(&mut self) {
        sys::set(&self.original);
    }
}

#[cfg(target_os = "linux")]
mod sys {
    /// glibc's `CPU_SETSIZE`, in 64-bit words.
    const WORDS: usize = 16;
    pub const CPUS: usize = WORDS * 64;
    pub type Mask = [u64; WORDS];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    pub fn get() -> Option<Mask> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed;
        // pid 0 is the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    pub fn set(mask: &Mask) -> bool {
        // SAFETY: `mask` is a readable buffer of exactly the size passed;
        // pid 0 is the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
    }

    pub fn has(mask: &Mask, cpu: usize) -> bool {
        mask[cpu / 64] >> (cpu % 64) & 1 == 1
    }

    pub fn only(cpu: usize) -> Mask {
        let mut mask = [0u64; WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        mask
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub const CPUS: usize = 0;
    pub type Mask = ();

    pub fn get() -> Option<Mask> {
        None
    }

    pub fn set(_: &Mask) -> bool {
        false
    }

    pub fn has(_: &Mask, _: usize) -> bool {
        false
    }

    pub fn only(_: usize) -> Mask {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_each_cpu_in_turn_and_restores_the_original_set() {
        let Some(rotation) = Rotation::new() else {
            return;
        };
        let before = sys::get();
        for k in 0..rotation.cpu_count() {
            assert!(rotation.pin(k));
            let now = sys::get().expect("affinity readable");
            let allowed: Vec<usize> = (0..sys::CPUS).filter(|&c| sys::has(&now, c)).collect();
            assert_eq!(allowed, vec![rotation.cpus[k]]);
        }
        drop(rotation);
        assert_eq!(sys::get(), before);
    }
}

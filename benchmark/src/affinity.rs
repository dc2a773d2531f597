//! Processor placement of the load generator and the system under test.
//!
//! On the sandbox kernel a newly created thread or process stays on its
//! creator's processor for about a second before the balancer moves it, so
//! whether the generator and the SUT shared a core was decided by chance
//! per repetition — throughput differed by a factor of two between
//! repetitions of identical work. The benchmark therefore places them
//! itself: the generator on the first processor, the SUT (child process, or
//! the engine worker of the in-process workload) on the second. Threads
//! inherit the placement of the thread that creates them.

/// Processor of the load generator and of everything decoded in-process.
pub const GENERATOR_CPU: usize = 0;

/// Processors this process may use, counted on first call. Placement
/// narrows what `available_parallelism` reports for the calling thread, so
/// the count is taken once, before the first [`pin_current_thread`].
pub fn processors() -> usize {
    static PROCESSORS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *PROCESSORS.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// Processor of the system under test; the generator's own when the box
/// has only one.
pub fn sut_cpu() -> usize {
    usize::from(processors() > 1)
}

#[cfg(target_os = "linux")]
extern "C" {
    /// `sched_setaffinity(2)` from the C library std already links.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread — and every thread it creates from now on
/// — to processor `cpu`. Returns false when the kernel refuses (the
/// processor is outside the allowed set); the run then goes on unplaced.
pub fn pin_current_thread(cpu: usize) -> bool {
    processors();
    #[cfg(target_os = "linux")]
    {
        let mask: u64 = 1u64 << (cpu % 64);
        // SAFETY: `mask` is a live, initialised 8-byte bit set and the size
        // passed is its size; pid 0 names the calling thread. The call reads
        // the mask and changes no memory of this process.
        unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = cpu;
        false
    }
}

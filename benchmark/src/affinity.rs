//! Pin the calling thread, and the threads it then starts, to one CPU.
//!
//! A one-worker run is meant to show the cost of the dag on one processor.
//! Every `run_dag` starts a new worker thread, and the kernel places it on
//! either core: on the core of the iteration before, its data is in that
//! core's private cache; on the other, every line is a miss, which for
//! the smaller workloads costs as much as the iteration itself. A new
//! thread inherits its parent's CPU mask, so pinning the benchmark's thread
//! around its W=1 iterations keeps them all on one core. Iterations at W
//! run unpinned.

use std::io;

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

fn set(mask: &CpuSet) -> io::Result<()> {
    // SAFETY: `mask` points at `size_of::<CpuSet>()` readable bytes, which
    // is the size passed; pid 0 is the calling thread.
    match unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) } {
        0 => Ok(()),
        _ => Err(io::Error::last_os_error()),
    }
}

/// The CPU mask this thread started with, and its highest CPU alone: the
/// lowest one is where interrupts and the rest of the system usually run
/// (here CPU 0 takes the network interrupts and the driving process, and
/// W=1 iterations pinned there ran 30 % slower in spells).
pub struct Affinity {
    all: CpuSet,
    one: CpuSet,
}

impl Affinity {
    pub fn current() -> io::Result<Affinity> {
        let mut all: CpuSet = [0; 16];
        // SAFETY: `all` is `size_of::<CpuSet>()` writable bytes, which is
        // the size passed; pid 0 is the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut all) } != 0 {
            return Err(io::Error::last_os_error());
        }
        let word = all.iter().rposition(|&w| w != 0).ok_or(io::ErrorKind::NotFound)?;
        let mut one: CpuSet = [0; 16];
        one[word] = 1 << (63 - all[word].leading_zeros());
        Ok(Affinity { all, one })
    }

    /// Run `f` with this thread, and any thread it starts, on one CPU.
    pub fn pinned<R>(&self, f: impl FnOnce() -> R) -> R {
        // A mask taken from this thread's own is one the kernel accepts.
        set(&self.one).expect("pinning to a CPU of the thread's own mask");
        let result = f();
        set(&self.all).expect("restoring the thread's own mask");
        result
    }
}

//! Hang-proofing from outside the runtime. Every call into the pool runs
//! inside [`watch`]; a monitor thread, asleep but for ten wake-ups a
//! second, ends the process with a message and a non-zero code when one
//! such call has not returned after [`LIMIT`]. A hung pool cannot be
//! unwound from outside, so the process is the unit that fails.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::OnceLock;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// No watched call of this benchmark runs for more than a fraction of a
/// second.
pub const LIMIT: Duration = Duration::from_secs(20);

/// Milliseconds since [`epoch`] at which the call in flight began, plus
/// one; zero while none is.
static IN_FLIGHT: AtomicU64 = AtomicU64::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Run one call into the pool under the monitor, if one is installed.
pub fn watch<R>(call: impl FnOnce() -> R) -> R {
    IN_FLIGHT.store(epoch().elapsed().as_millis() as u64 + 1, Ordering::Release);
    let result = call();
    IN_FLIGHT.store(0, Ordering::Release);
    result
}

/// The running monitor; dropping it stops and joins the thread.
pub struct Monitor {
    stop: Option<Sender<()>>,
    thread: Option<JoinHandle<()>>,
}

impl Monitor {
    /// Start the monitor. On a stall it calls `on_stall`, which reports
    /// what was measured so far, and exits with code 1.
    pub fn install(on_stall: impl FnOnce() + Send + 'static) -> Monitor {
        epoch();
        let (stop, stopped) = channel::<()>();
        let thread = std::thread::spawn(move || loop {
            match stopped.recv_timeout(Duration::from_millis(100)) {
                Err(RecvTimeoutError::Timeout) => {}
                _ => return,
            }
            let began = IN_FLIGHT.load(Ordering::Acquire);
            if began != 0
                && epoch().elapsed().as_millis() as u64 + 1 - began > LIMIT.as_millis() as u64
            {
                eprintln!(
                    "bench: a call into the pool has not returned after {LIMIT:?}; giving up"
                );
                on_stall();
                std::process::exit(1);
            }
        });
        Monitor { stop: Some(stop), thread: Some(thread) }
    }
}

impl Drop for Monitor {
    fn drop(&mut self) {
        drop(self.stop.take());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

//! Monotonic timestamps for trace events and spans.

use std::sync::OnceLock;
use std::time::Instant;

use crate::Ticks;

static EPOCH: OnceLock<Instant> = OnceLock::new();

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Current monotonic time as nanoseconds since the (lazily pinned)
/// process-local epoch. Costs one clock read; only call around rare
/// events, never on per-add hot paths.
#[inline]
pub fn now() -> Ticks {
    Ticks(epoch().elapsed().as_nanos() as u64)
}

impl Ticks {
    /// Nanoseconds elapsed since this timestamp was taken (saturating).
    #[inline]
    pub fn elapsed_ns(self) -> u64 {
        now().0.saturating_sub(self.0)
    }

    /// Nanoseconds since the process-local epoch.
    #[inline]
    pub fn as_ns(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_is_monotone() {
        let a = now();
        let b = now();
        assert!(b >= a);
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(a.elapsed_ns() >= 2_000_000);
    }
}

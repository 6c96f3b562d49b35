//! The splitter the concurrent batteries race against their adders.

use outset::tree::TreeOutsetObj;

/// Split `set` toward its cap for as long as it is unsealed, spinning
/// `pause` times between attempts so that the splits land among the adds:
/// the add ∥ split ∥ finish race, driven from outside the adders.
pub fn split_until_sealed(set: &TreeOutsetObj, pause: u32) {
    while !set.is_finished() {
        if !set.force_split() {
            std::thread::yield_now();
        }
        for _ in 0..pause {
            std::hint::spin_loop();
        }
    }
}

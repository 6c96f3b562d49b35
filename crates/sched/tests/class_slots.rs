//! The class pools own fixed cache slots (`sched::slab`): slots 1–6 of
//! every thread's table are the six classes' from the start, so a pool made
//! with `SlabPool::new` takes a slot after them even when it is the first
//! pool the process uses, and a thread's flush hands every class slab to
//! its own class's depot. One test in a binary of its own: the gauges are
//! process-wide, and nothing in this process touches a pool before it.

use std::alloc::Layout;

use sched::{recycle, slab, SlabPool};

#[test]
fn class_slots_are_fixed() {
    static DYNAMIC: SlabPool = SlabPool::new("test.first_pool", Layout::new::<[u64; 8]>(), 8);
    const CLASSES: usize = 6;
    assert_eq!(recycle::cached_slabs_by_class(), [0; CLASSES], "a fresh process");

    // The first pool this process uses is a dynamic one. Had it taken slot
    // 1, its slab would sit in the 32 B class's cache.
    let (mine, reused) = DYNAMIC.take();
    assert!(!reused, "nothing cached yet");
    // SAFETY: a slab of `DYNAMIC` this test owns and gives up.
    unsafe { DYNAMIC.release(mine) };
    assert_eq!(DYNAMIC.cached_slabs(), 1);
    assert_eq!(recycle::cached_slabs_by_class(), [0; CLASSES], "in no class's cache");

    // One slab per class, born fresh and released on this thread.
    let born: Vec<usize> = (0..CLASSES as u8)
        .map(|class| {
            let (slab, reused) = recycle::acquire_or_alloc(class);
            assert!(!reused, "class {class}: nothing cached yet");
            recycle::release(class, slab);
            slab as usize
        })
        .collect();
    assert_eq!(recycle::cached_slabs_by_class(), [1; CLASSES]);
    assert_eq!(DYNAMIC.cached_slabs(), 1);

    // Flushed, every slab is in its own class's depot: exact gauges, and a
    // thread with empty caches gets each class's slab back from the depot.
    slab::flush_this_thread();
    assert_eq!(recycle::cached_slabs_by_class(), [1; CLASSES], "flushed, not lost");
    assert_eq!(DYNAMIC.cached_slabs(), 1);
    let got: Vec<(usize, bool)> = std::thread::spawn(|| {
        (0..CLASSES as u8)
            .map(|class| {
                let (slab, reused) = recycle::acquire_or_alloc(class);
                (slab as usize, reused)
            })
            .collect()
    })
    .join()
    .unwrap();
    assert_eq!(got, born.iter().map(|&slab| (slab, true)).collect::<Vec<_>>());
    assert_eq!(recycle::cached_slabs_by_class(), [0; CLASSES], "the depots handed them over");
    assert_eq!(DYNAMIC.take(), (mine, true), "the dynamic pool kept its own");

    for (class, (slab, _)) in (0u8..).zip(got) {
        recycle::release(class, slab as *mut u8);
    }
    // SAFETY: as above.
    unsafe { DYNAMIC.release(mine) };
    slab::flush_this_thread();
    assert_eq!(recycle::trim(), CLASSES);
    assert_eq!(DYNAMIC.trim(), 1);
}

//! The reference kernel: a fixed piece of work written with `std` only,
//! independent of every crate under test. Timed next to each simulation
//! run, it measures how fast the host is at that moment, so that run
//! times can be scaled to a fixed host speed (see README.md, "Noise").

use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// Host seconds of one pass of the kernel: a bounded priority queue of
/// small heap-allocated records plus an ordered map, the data structures
/// a discrete-event simulation spends its time in.
pub fn seconds() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut heap = BinaryHeap::new();
    let mut map = BTreeMap::new();
    let mut acc = 0u64;
    for _ in 0..400_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push((x >> 20, vec![x as u8; (x % 64) as usize]));
        if heap.len() > 50_000 {
            if let Some((k, v)) = heap.pop() {
                acc = acc.wrapping_add(k + v.len() as u64);
            }
        }
        *map.entry(x % 4096).or_insert(0u64) += 1;
    }
    black_box((acc, map.len()));
    t.elapsed().as_secs_f64()
}

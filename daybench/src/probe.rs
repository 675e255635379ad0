//! Host-speed probe. The virtual CPUs of a shared host change speed by
//! tens of percent over seconds to minutes, whatever runs on them. The
//! probe, a fixed shortest-path search on a synthetic grid written with the
//! standard library only, runs before and after every replay; no change to
//! the program under test moves it. Timing metrics are reported at the
//! reference speed: measured times scaled by [`REFERENCE_S`] over the
//! probe's time around the replay.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Median probe time on the reference host (see `METRICS.md`), seconds.
pub const REFERENCE_S: f64 = 0.0059;

/// Side of the probe's square grid.
const SIDE: usize = 250;

/// Seconds one probe search takes now.
pub fn probe_s() -> f64 {
    let t = Instant::now();
    black_box(search(black_box(SIDE)));
    t.elapsed().as_secs_f64()
}

/// Dijkstra from one corner of a `side`² grid with hashed vertex weights;
/// the distance to the far corner.
fn search(side: usize) -> u64 {
    let n = side * side;
    let weight = |v: usize| -> u64 {
        let mut x = v as u64 ^ 0x9e37_79b9_7f4a_7c15;
        x = (x ^ (x >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        1 + (x >> 59)
    };
    let mut dist = vec![u64::MAX; n];
    let mut heap = BinaryHeap::new();
    dist[0] = 0;
    heap.push(Reverse((0u64, 0usize)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v] {
            continue;
        }
        let (r, c) = (v / side, v % side);
        let mut relax = |u: usize| {
            let nd = d + weight(u);
            if nd < dist[u] {
                dist[u] = nd;
                heap.push(Reverse((nd, u)));
            }
        };
        if r > 0 {
            relax(v - side);
        }
        if r + 1 < side {
            relax(v + side);
        }
        if c > 0 {
            relax(v - 1);
        }
        if c + 1 < side {
            relax(v + 1);
        }
    }
    dist[n - 1]
}

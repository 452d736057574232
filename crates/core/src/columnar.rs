//! The columnar quiet-prefix kernel shared by the `absorb_quiet` rewrites.
//!
//! Every counter-kind quiet condition in this crate is (or contains) a
//! *band* check: a running sum must stay inside a fixed interval
//! `[lo, hi]` for the update to be provably message-free.
//! [`in_band_prefix`] evaluates that check over a whole slice instead of
//! one update at a time — chunked prefix sums with running min/max, so
//! the in-band check compiles to straight-line arithmetic over 64-element
//! chunks (autovectorizable) and only the chunk that leaves the band is
//! rescanned scalar to find the exact stop index.
//!
//! It is *exact*: it absorbs precisely the updates the per-update scalar
//! loop would have absorbed, never more — which is what keeps the
//! columnar path bit-identical to the oracle.

/// Chunk width for the vector-friendly prefix scan. 64 × i64 = one page of
/// registers on AVX-512, four unrolled iterations on 128-bit NEON/SSE —
/// small enough to keep the out-of-band rescans cheap, large enough that
/// the in-band fast path dominates.
const CHUNK: usize = 64;

/// Longest prefix of `deltas` whose running sum (seeded with `start`)
/// stays inside `[lo, hi]` **at every step**, returned as
/// `(len, final_sum)` where `final_sum` is the running sum after `len`
/// steps (`start` if `len == 0`).
///
/// Exactly equivalent to the scalar loop
/// `while acc + d in [lo, hi] { acc += d }` — including on overflow, where
/// both paths wrap in release builds and panic in debug builds — but scans
/// in 64-wide blocks: a block whose running min/max stay in band is
/// absorbed wholesale; the first block that leaves the band is rescanned
/// scalar to the exact stop index.
///
/// `start` itself is not checked against the band (the caller's state is
/// presumed valid); only post-update sums are.
pub fn in_band_prefix(start: i64, deltas: &[i64], lo: i64, hi: i64) -> (usize, i64) {
    debug_assert!(lo <= hi);
    let mut acc = start;
    let mut n = 0usize;
    for chunk in deltas.chunks(CHUNK) {
        // Straight-line pass: prefix sums + running min/max. No branches
        // inside the loop body, so the compiler can vectorize it.
        let mut sum = acc;
        let mut min = i64::MAX;
        let mut max = i64::MIN;
        for &d in chunk {
            sum = sum.wrapping_add(d);
            min = min.min(sum);
            max = max.max(sum);
        }
        if min >= lo && max <= hi {
            acc = sum;
            n += chunk.len();
            continue;
        }
        // This chunk leaves the band somewhere: rescan it scalar for the
        // exact stop index, matching the per-update loop step for step.
        for &d in chunk {
            let next = acc.wrapping_add(d);
            if next < lo || next > hi {
                return (n, acc);
            }
            acc = next;
            n += 1;
        }
        // Unreachable when min/max said the chunk leaves the band, but a
        // wrapping_add overflow can make them disagree with the scalar
        // walk; falling through and stopping here is the safe answer.
        return (n, acc);
    }
    (n, acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-update oracle both kernels must match exactly.
    fn scalar(start: i64, deltas: &[i64], lo: i64, hi: i64) -> (usize, i64) {
        let mut acc = start;
        let mut n = 0;
        for &d in deltas {
            let next = acc.wrapping_add(d);
            if next < lo || next > hi {
                break;
            }
            acc = next;
            n += 1;
        }
        (n, acc)
    }

    #[test]
    fn prefix_matches_scalar_on_band_hugging_streams() {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for &(lo, hi) in &[(-5i64, 5i64), (0, 0), (-1, 3), (-1000, 1000), (3, 9)] {
            for len in [0usize, 1, 63, 64, 65, 130, 1000] {
                let start = (lo + hi) / 2;
                let deltas: Vec<i64> = (0..len).map(|_| (rng() % 7) as i64 - 3).collect();
                assert_eq!(
                    in_band_prefix(start, &deltas, lo, hi),
                    scalar(start, &deltas, lo, hi),
                    "lo={lo} hi={hi} len={len}"
                );
            }
        }
    }

    #[test]
    fn prefix_stops_mid_chunk_exactly() {
        // 100 ones into a band of width 70: stops at exactly 70 - start.
        let deltas = vec![1i64; 100];
        assert_eq!(in_band_prefix(0, &deltas, -70, 70), (70, 70));
        assert_eq!(in_band_prefix(5, &deltas, -70, 70), (65, 70));
        // Alternating ±1 never leaves a width-1 band.
        let alt: Vec<i64> = (0..257).map(|i| if i % 2 == 0 { 1 } else { -1 }).collect();
        assert_eq!(in_band_prefix(0, &alt, 0, 1), (257, 1));
        assert_eq!(in_band_prefix(0, &alt, -1, 0), (0, 0));
    }

    #[test]
    fn run_matches_expansion() {
        // Constant runs: the monotone partial sums hit each band edge
        // exactly, including one step short of i64's ends.
        for &(start, v, n, lo, hi) in &[
            (0i64, 1i64, 100usize, -70i64, 70i64),
            (0, -1, 100, -70, 70),
            (5, 0, 42, -70, 70),
            (80, 0, 42, -70, 70),
            (0, 3, 1000, -10, 10),
            (0, -3, 1000, -10, 10),
            (10, 1, 0, -70, 70),
            (-70, -1, 5, -70, 70),
            (70, 1, 5, -70, 70),
            (i64::MAX - 5, 1, 3, i64::MIN, i64::MAX),
            (i64::MIN + 5, -1, 3, i64::MIN, i64::MAX),
        ] {
            let run = vec![v; n];
            assert_eq!(
                in_band_prefix(start, &run, lo, hi),
                scalar(start, &run, lo, hi),
                "start={start} v={v} n={n}"
            );
        }
    }
}

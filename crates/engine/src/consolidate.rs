//! Run-length encoding of a counter run — a measurement probe, not an
//! ingestion path.
//!
//! [`Consolidator::compress_runs`] is kept only because the repository
//! benchmark binds to it: its `engine.consolidate.*` probe reports what
//! RLE would cost per input and how many segments it would leave on each
//! workload's real chunks (`benchmark/README.md`, "The surface it binds
//! to"). The engine itself never consolidates — every run goes through
//! `Tracker::update_run` and the sites' `absorb_quiet` kernels (DESIGN.md
//! §10 records why the consolidated path was removed).

/// Reusable RLE scratch.
#[derive(Debug, Default)]
pub struct Consolidator {
    /// RLE segments of a counter run.
    segs: Vec<(i64, u32)>,
}

impl Consolidator {
    /// Fresh scratch with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run-length encode `run` into `(value, count)` segments (clearing
    /// previous contents). Runs longer than `u32::MAX` are split.
    ///
    /// The scan extends a segment by whole 32-element blocks while they
    /// are all equal to the segment value — a branch-free slice compare
    /// the compiler vectorizes — and finishes the crossing block scalar,
    /// so monotone batches compress at memcmp speed.
    pub fn compress_runs(&mut self, run: &[i64]) -> &[(i64, u32)] {
        self.segs.clear();
        let mut i = 0;
        while i < run.len() {
            let v = run[i];
            let mut j = i + 1;
            while j + 32 <= run.len() && run[j..j + 32].iter().all(|&x| x == v) {
                j += 32;
            }
            while j < run.len() && run[j] == v {
                j += 1;
            }
            let mut len = j - i;
            while len > 0 {
                let c = len.min(u32::MAX as usize);
                self.segs.push((v, c as u32));
                len -= c;
            }
            i = j;
        }
        &self.segs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rle_roundtrips_and_splits() {
        let mut c = Consolidator::new();
        assert!(c.compress_runs(&[]).is_empty());
        let run: Vec<i64> = [vec![1i64; 100], vec![-1; 3], vec![1; 40], vec![0; 1]].concat();
        let segs: Vec<_> = c.compress_runs(&run).to_vec();
        assert_eq!(segs, vec![(1, 100), (-1, 3), (1, 40), (0, 1)]);
        let expanded: Vec<i64> = segs
            .iter()
            .flat_map(|&(v, n)| std::iter::repeat_n(v, n as usize))
            .collect();
        assert_eq!(expanded, run);
        // Alternating input degenerates to one segment per element.
        let alt: Vec<i64> = (0..67).map(|i| if i % 2 == 0 { 1 } else { -1 }).collect();
        assert_eq!(c.compress_runs(&alt).len(), 67);
    }
}

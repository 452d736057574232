//! The benchmark's own seeded inputs.
//!
//! Everything here is a pure function of `--seed` through splitmix64, and
//! nothing comes from `dsv-gen` or the workspace's `rand` stand-in: a change
//! to the repository cannot move a workload. Each workload records the FNV
//! fingerprint of what it fed.

/// splitmix64 (Steele, Lea, Flood): the whole generator is one `u64`.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

/// The splitmix64 finaliser, also used to spread dense ids over `u64` keys
/// (it is a bijection, so distinct ids give distinct keys).
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SplitMix64 {
    /// An independent stream for `(seed, lane)`.
    pub fn new(seed: u64, lane: u64) -> Self {
        SplitMix64(mix64(
            seed ^ mix64(lane.wrapping_add(0x9E37_79B9_7F4A_7C15)),
        ))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias at these sizes is below
    /// 2⁻⁴⁰ and is the same on every run.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// True with probability `num / 2³²`.
    pub fn chance(&mut self, num: u64) -> bool {
        (self.next() >> 32) < num
    }
}

/// FNV-1a over little-endian words: the input fingerprint.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

pub fn fnv_bytes(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.bytes(bytes);
    h.finish()
}

/// Fingerprint of per-site feeds. One word per 8 inputs (±1 packed as bits)
/// keeps it off the set-up budget at 2²⁵ inputs.
pub fn fingerprint_feeds(feeds: &[Vec<i64>]) -> u64 {
    let mut h = Fnv::default();
    for feed in feeds {
        h.word(feed.len() as u64);
        for chunk in feed.chunks(64) {
            let mut bits = 0u64;
            for (i, &d) in chunk.iter().enumerate() {
                bits |= ((d > 0) as u64) << i;
            }
            h.word(bits);
        }
    }
    h.finish()
}

const P32: u64 = 1 << 32;

/// `sites` nearly-monotone ±1 feeds of `len` inputs: +1 with probability
/// 0.98. Every partial sum grows linearly, so `v(n) = O(log n)`.
pub fn quiet_feeds(seed: u64, sites: usize, len: usize) -> Vec<Vec<i64>> {
    (0..sites)
        .map(|site| {
            let mut rng = SplitMix64::new(seed, site as u64);
            (0..len)
                .map(|_| if rng.chance(P32 / 100 * 98) { 1 } else { -1 })
                .collect()
        })
        .collect()
}

/// The band the loud walk is reflected into. Every site's partial sum stays
/// in it (after the initial climb to its middle), so all shard sums are
/// positive and no boundary can legitimately violate ε by sign disagreement,
/// while each update moves its site's sum by about 1/256 of its value.
///
/// The issue proposed [32, 96]. There every function is so small that the
/// tracker forwards each update and every estimate is exact: none of the
/// block protocol runs, and the accuracy metrics read the same whatever the
/// code does. The band was moved once, to values four times larger, and made
/// narrow: a walk
/// crosses it hundreds of times in a pass, and a shard's sum (two sites)
/// keeps crossing 512, where the tracker changes block size, so that
/// `msgs_per_kupd` and `err_over_eps` depend little on the seed. (A band
/// inside one power of two freezes the message rate at exactly 318 per 1000
/// updates and leaves the error at one of a few fixed offsets, 0 among them.)
pub const LOUD_BAND: (i64, i64) = (224, 288);

/// `sites` feeds, each a fair ±1 walk reflected into [`LOUD_BAND`].
pub fn loud_feeds(seed: u64, sites: usize, len: usize) -> Vec<Vec<i64>> {
    let (lo, hi) = LOUD_BAND;
    let start = (lo + hi) / 2;
    (0..sites)
        .map(|site| {
            let mut rng = SplitMix64::new(seed, 0x100 + site as u64);
            let mut x = 0i64;
            (0..len as i64)
                .map(|t| {
                    // The first `start` steps climb to the middle of the band.
                    let climbing = t < start;
                    let mut d = if climbing || rng.chance(P32 / 2) {
                        1
                    } else {
                        -1
                    };
                    if !climbing && !(lo..=hi).contains(&(x + d)) {
                        d = -d;
                    }
                    x += d;
                    d
                })
                .collect()
        })
        .collect()
}

/// The paper's variability `v(n) = Σ min(1, |f′(t)/f(t)|)` of one function,
/// with the `f(t) = 0` step counted as 1. The benchmark computes it itself
/// so that `msgs_per_budget` does not lean on the code it measures.
#[derive(Debug, Clone, Copy, Default)]
pub struct Variability {
    pub f: i64,
    pub v: f64,
}

impl Variability {
    pub fn observe(&mut self, delta: i64) {
        self.f += delta;
        self.v += if self.f == 0 {
            1.0
        } else {
            (delta.unsigned_abs() as f64 / self.f.unsigned_abs() as f64).min(1.0)
        };
    }

    pub fn observe_all(&mut self, deltas: &[i64]) {
        for &d in deltas {
            self.observe(d);
        }
    }
}

/// One burst of `FleetInput::burst` equal updates: all to key `id`, or, when
/// `fresh`, one each to the never-seen keys `id .. id + burst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Burst {
    pub id: u32,
    pub delta: i8,
    pub fresh: bool,
}

impl Burst {
    /// The id the burst's `j`-th update goes to.
    pub fn target(&self, j: usize) -> usize {
        self.id as usize + j * self.fresh as usize
    }
}

/// One read issued at the end of a segment, with the truth at that moment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Read {
    pub id: u32,
    pub truth: i64,
}

/// The keyed workload: a preload, then one pass of bursts cut into segments
/// that each end with point reads.
#[derive(Debug, Clone)]
pub struct FleetInput {
    /// `keys[id]`; ids `0..preloaded` exist before a pass, the rest are
    /// churned in by it.
    pub keys: Vec<u64>,
    pub preloaded: usize,
    /// Updates (+1) every preloaded key receives in set-up.
    pub preload_updates: usize,
    pub hot: usize,
    pub burst: usize,
    pub bursts: Vec<Burst>,
    pub bursts_per_segment: usize,
    /// `reads[segment]`.
    pub reads: Vec<Vec<Read>>,
    /// Per-id truth after the preload and one pass.
    pub truth: Vec<i64>,
    /// Σ over keys of the pass's variability (preload excluded).
    pub v_pass: f64,
    pub fingerprint: u64,
}

/// Sizes of the keyed workload.
#[derive(Debug, Clone, Copy)]
pub struct FleetShape {
    pub preloaded: usize,
    pub preload_updates: usize,
    pub hot: usize,
    pub burst: usize,
    pub updates_per_pass: usize,
    pub segments: usize,
    pub reads_per_segment: usize,
}

/// Share of bursts (in 2⁻³²) that go to the hot set, and to never-seen keys
/// (one update to each of `burst` new keys, so 2% of *updates* admit a key);
/// the rest are uniform over live keys.
const HOT_SHARE: u64 = P32 / 100 * 90;
const NEW_SHARE: u64 = P32 / 100 * 2;
/// A hot burst deletes with this chance, once its key holds at least
/// `DELETE_FLOOR` (so no key's count ever reaches zero or changes sign).
const DELETE_SHARE: u64 = P32 / 4;
const DELETE_FLOOR: i64 = 64;

pub fn fleet_input(seed: u64, shape: FleetShape) -> FleetInput {
    let n_bursts = shape.updates_per_pass / shape.burst;
    let bursts_per_segment = n_bursts / shape.segments;
    let mut rng = SplitMix64::new(seed, 0x200);
    let key_salt = SplitMix64::new(seed, 0x201).next();
    let mut truth: Vec<i64> = vec![shape.preload_updates as i64; shape.preloaded];
    let mut var: Vec<Variability> = truth.iter().map(|&f| Variability { f, v: 0.0 }).collect();
    let mut bursts = Vec::with_capacity(n_bursts);
    let mut reads = Vec::with_capacity(shape.segments);
    let mut h = Fnv::default();
    for b in 0..n_bursts {
        let pick = rng.next() >> 32;
        let live = truth.len() as u64;
        let burst = if pick < HOT_SHARE {
            let id = rng.below(shape.hot as u64) as u32;
            let del = rng.chance(DELETE_SHARE) && truth[id as usize] >= DELETE_FLOOR;
            Burst {
                id,
                delta: if del { -1 } else { 1 },
                fresh: false,
            }
        } else if pick < HOT_SHARE + NEW_SHARE {
            truth.resize(truth.len() + shape.burst, 0);
            var.resize(truth.len(), Variability::default());
            Burst {
                id: live as u32,
                delta: 1,
                fresh: true,
            }
        } else {
            Burst {
                id: rng.below(live) as u32,
                delta: 1,
                fresh: false,
            }
        };
        for j in 0..shape.burst {
            var[burst.target(j)].observe(burst.delta as i64);
            truth[burst.target(j)] += burst.delta as i64;
        }
        bursts.push(burst);
        h.word((burst.id as u64) << 9 | (burst.fresh as u64) << 8 | (burst.delta as u8) as u64);
        if (b + 1) % bursts_per_segment == 0 {
            let live = truth.len() as u64;
            reads.push(
                (0..shape.reads_per_segment)
                    .map(|_| {
                        // Half the reads go where most writes go.
                        let among = if rng.chance(P32 / 2) {
                            shape.hot as u64
                        } else {
                            live
                        };
                        let id = rng.below(among) as usize;
                        Read {
                            id: id as u32,
                            truth: truth[id],
                        }
                    })
                    .collect(),
            );
        }
    }
    let keys: Vec<u64> = (0..truth.len() as u64)
        .map(|id| mix64(id ^ key_salt))
        .collect();
    h.word(key_salt);
    FleetInput {
        keys,
        preloaded: shape.preloaded,
        preload_updates: shape.preload_updates,
        hot: shape.hot,
        burst: shape.burst,
        bursts,
        bursts_per_segment,
        reads,
        truth,
        v_pass: var.iter().map(|m| m.v).sum(),
        fingerprint: h.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variability_matches_a_hand_computed_stream() {
        // f: 1, 2, 1, 0, -1, 0, 1   (f = 0 steps contribute 1)
        // v: 1 + 1/2 + 1 + 1 + 1 + 1 + 1
        let mut m = Variability::default();
        m.observe_all(&[1, 1, -1, -1, -1, 1, 1]);
        assert_eq!(m.f, 1);
        assert!((m.v - 6.5).abs() < 1e-12, "{}", m.v);
        // A larger step is capped at 1, and a long climb is harmonic.
        let mut m = Variability::default();
        m.observe(5);
        m.observe(5);
        assert!((m.v - 1.5).abs() < 1e-12);
        let mut m = Variability::default();
        m.observe_all(&[1; 4]);
        assert!((m.v - (1.0 + 0.5 + 1.0 / 3.0 + 0.25)).abs() < 1e-12);
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = fingerprint_feeds(&quiet_feeds(2016, 4, 4096));
        assert_eq!(a, fingerprint_feeds(&quiet_feeds(2016, 4, 4096)));
        assert_ne!(a, fingerprint_feeds(&quiet_feeds(1502, 4, 4096)));
        let l = fingerprint_feeds(&loud_feeds(2016, 4, 4096));
        assert_eq!(l, fingerprint_feeds(&loud_feeds(2016, 4, 4096)));
        assert_ne!(l, fingerprint_feeds(&loud_feeds(1502, 4, 4096)));
        assert_ne!(a, l);
        let shape = FleetShape {
            preloaded: 512,
            preload_updates: 8,
            hot: 32,
            burst: 32,
            updates_per_pass: 1 << 14,
            segments: 4,
            reads_per_segment: 16,
        };
        let f = fleet_input(2016, shape);
        assert_eq!(f.fingerprint, fleet_input(2016, shape).fingerprint);
        assert_ne!(f.fingerprint, fleet_input(1502, shape).fingerprint);
    }

    #[test]
    fn loud_walk_stays_in_its_band() {
        for feed in loud_feeds(7, 3, 20_000) {
            let mut x = 0i64;
            for (t, d) in feed.into_iter().enumerate() {
                x += d;
                assert!(x > 0, "partial sum must stay positive");
                if t as i64 >= (LOUD_BAND.0 + LOUD_BAND.1) / 2 {
                    assert!((LOUD_BAND.0..=LOUD_BAND.1).contains(&x), "x = {x} at {t}");
                }
            }
        }
    }

    #[test]
    fn fleet_truth_is_positive_and_reads_carry_it() {
        let shape = FleetShape {
            preloaded: 256,
            preload_updates: 8,
            hot: 16,
            burst: 32,
            updates_per_pass: 1 << 15,
            segments: 8,
            reads_per_segment: 8,
        };
        let f = fleet_input(3, shape);
        assert!(f.truth.iter().all(|&t| t > 0));
        assert!(f.keys.len() > f.preloaded, "some keys are churned in");
        assert_eq!(f.reads.len(), 8);
        assert_eq!(f.bursts.len() % f.bursts_per_segment, 0);
        let mut sorted = f.keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), f.keys.len(), "keys are distinct");
        assert!(f.v_pass > 0.0);
    }
}

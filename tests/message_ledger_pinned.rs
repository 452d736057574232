//! The message ledger, pinned digit for digit.
//!
//! The paper prices a stream in messages, so the message count is this
//! repository's most important number, and a change to how messages are
//! *buffered* (the simulator's outboxes) must never change how many are
//! sent, in what order, or what they cost. The equivalence suites compare
//! one execution shape against another; this file compares every kind
//! against constants recorded once, so a change that moves both sides of
//! an equivalence at once still fails here.
//!
//! Every registry kind runs through [`TrackerSpec`] on a loud stream (a
//! fair ±1 walk; an item stream that deletes nearly as often as it
//! inserts) and a nearly-monotone one, fed through `update_run` in
//! same-site runs so both the quiet kernels and the per-message path run.
//! Frequency streams are Zipf-skewed, so block starts send many heavy
//! reports from one site at once. Pinned per row: every [`CommStats`]
//! field, the final estimate and the fingerprint of the snapshot payload.
//! Two simulators also pin their full transcripts.
//!
//! The constants were generated at the commit before the inline-first
//! outboxes (PR 26) and pass there unedited. On a mismatch the panic
//! prints the whole computed table, ready to paste — after a reviewer has
//! agreed that the ledger was meant to move.
//!
//! The fingerprint columns (snapshot payloads and transcripts) were
//! re-derived over the same bytes when `dsv_net::fingerprint` became the
//! word fold: the parent tree with only its fold swapped printed this
//! exact table. Every count and estimate is as first generated.

use dsv::net::{fingerprint, Fingerprint, MsgKind, MsgRecord};
use dsv::prelude::*;

/// Sites per tracker (the single-site kind runs with one).
const K: usize = 8;
/// Updates per stream.
const N: u64 = 12_000;
/// Item universe of the frequency streams.
const UNIVERSE: usize = 64;

/// One pinned ledger: messages by kind (in [`MsgKind::ALL`] order), total
/// words, broadcast ops, request ops, final estimate, and the fingerprint
/// of the snapshot payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ledger {
    msgs: [u64; 5],
    words: u64,
    broadcast_ops: u64,
    request_ops: u64,
    estimate: i64,
    state: u64,
}

const fn ledger(
    msgs: [u64; 5],
    words: u64,
    broadcast_ops: u64,
    request_ops: u64,
    estimate: i64,
    state: u64,
) -> Ledger {
    Ledger {
        msgs,
        words,
        broadcast_ops,
        request_ops,
        estimate,
        state,
    }
}

const PINNED: [(TrackerKind, &str, Ledger); 20] = [
    (
        TrackerKind::Deterministic,
        "loud",
        ledger(
            [12477, 2144, 0, 2144, 2144],
            21053,
            268,
            268,
            246,
            0x689f3d13e604785b,
        ),
    ),
    (
        TrackerKind::Deterministic,
        "nearly-monotone",
        ledger(
            [1838, 568, 0, 568, 568],
            4110,
            71,
            71,
            4812,
            0xbedcb85630702586,
        ),
    ),
    (
        TrackerKind::Randomized,
        "loud",
        ledger(
            [13388, 2144, 0, 2144, 2144],
            21964,
            268,
            268,
            243,
            0x8449b5bb67214a88,
        ),
    ),
    (
        TrackerKind::Randomized,
        "nearly-monotone",
        ledger(
            [2967, 568, 0, 568, 568],
            5239,
            71,
            71,
            4917,
            0x03f76061d52312bd,
        ),
    ),
    (
        TrackerKind::SingleSite,
        "loud",
        ledger([50, 0, 0, 0, 0], 50, 0, 0, 262, 0xb01693fb3d68eefc),
    ),
    (
        TrackerKind::SingleSite,
        "nearly-monotone",
        ledger([76, 0, 0, 0, 0], 76, 0, 0, 4751, 0x199195c801700def),
    ),
    (
        TrackerKind::Naive,
        "loud",
        ledger([12000, 0, 0, 0, 0], 12000, 0, 0, 244, 0x519494751b29ade4),
    ),
    (
        TrackerKind::Naive,
        "nearly-monotone",
        ledger([12000, 0, 0, 0, 0], 12000, 0, 0, 4914, 0xca43d2b9a5d11917),
    ),
    (
        TrackerKind::CmyMonotone,
        "loud",
        ledger([490, 0, 0, 0, 0], 490, 0, 0, 17208, 0xeb5b412dfe32daad),
    ),
    (
        TrackerKind::CmyMonotone,
        "nearly-monotone",
        ledger([454, 0, 0, 0, 0], 454, 0, 0, 14685, 0x012188f4e6f256c6),
    ),
    (
        TrackerKind::HyzMonotone,
        "loud",
        ledger([559, 88, 0, 0, 88], 735, 0, 11, 17705, 0xaf476c1a67a82b4f),
    ),
    (
        TrackerKind::HyzMonotone,
        "nearly-monotone",
        ledger([547, 80, 0, 0, 80], 707, 0, 10, 15349, 0x38baa6f259bb9882),
    ),
    (
        TrackerKind::ExactFreq,
        "loud",
        ledger(
            [44944, 1400, 0, 1400, 1400],
            90980,
            175,
            175,
            1475,
            0xd25012b55c11f18a,
        ),
    ),
    (
        TrackerKind::ExactFreq,
        "nearly-monotone",
        ledger(
            [6510, 304, 0, 304, 304],
            12840,
            38,
            38,
            10577,
            0xc144c375d058bf1a,
        ),
    ),
    (
        TrackerKind::CountMinFreq,
        "loud",
        ledger(
            [125161, 1400, 0, 1400, 1400],
            251414,
            175,
            175,
            1475,
            0x0fa34d0f00b0c555,
        ),
    ),
    (
        TrackerKind::CountMinFreq,
        "nearly-monotone",
        ledger(
            [16731, 304, 0, 304, 304],
            33282,
            38,
            38,
            10577,
            0xd15b8d28b08688ea,
        ),
    ),
    (
        TrackerKind::CrPrecisFreq,
        "loud",
        ledger(
            [1458902, 1400, 0, 1400, 1400],
            2918896,
            175,
            175,
            1475,
            0xdea2095f8e84c7a4,
        ),
    ),
    (
        TrackerKind::CrPrecisFreq,
        "nearly-monotone",
        ledger(
            [191136, 304, 0, 304, 304],
            382092,
            38,
            38,
            10577,
            0x511f698d69e525e2,
        ),
    ),
    (
        TrackerKind::RandFreq,
        "loud",
        ledger(
            [50025, 1400, 0, 1400, 1400],
            101142,
            175,
            175,
            1475,
            0x83ee58fade25d048,
        ),
    ),
    (
        TrackerKind::RandFreq,
        "nearly-monotone",
        ledger(
            [8241, 304, 0, 304, 304],
            16302,
            38,
            38,
            10577,
            0x0e877086aa019b4d,
        ),
    ),
];

/// `(transcript length, transcript fingerprint)` for the loud walk
/// through `DeterministicTracker::sim(8, 0.1)`.
const DETERMINISTIC_TRANSCRIPT: (usize, u64) = (15157, 0x02d97fbcac6f6c5c);
/// The same for the loud item stream through `ExactFreqTracker::sim(8,
/// 0.1, 64)`.
const EXACT_FREQ_TRANSCRIPT: (usize, u64) = (46694, 0x6a8a06c065795e6a);

/// Feed `inputs` through `update_run` in same-site runs of 1 to 6
/// updates, sites in rotation, so the run seam gets both singletons and
/// real runs. Returns the last estimate.
fn feed_runs<In: Copy>(
    inputs: &[In],
    k: usize,
    mut update_run: impl FnMut(usize, &[In]) -> i64,
) -> i64 {
    let (mut at, mut run, mut estimate) = (0, 0, 0);
    while at < inputs.len() {
        let end = (at + 1 + run % 6).min(inputs.len());
        estimate = update_run(run % k, &inputs[at..end]);
        at = end;
        run += 1;
    }
    estimate
}

/// The loud stream is a fair walk reflected inside `[200, 300]` after a
/// ramp to 250, so the partitioner's radius leaves zero and block ends,
/// requests and in-block drifts all run. Insert-only kinds see every
/// deletion as an insertion of 2.
fn counter_stream(loud: bool, deletions: bool) -> Vec<i64> {
    let deltas = if loud {
        let mut coin = WalkGen::fair(26);
        let mut f = 0;
        (0..N)
            .map(|t| {
                let d = match coin.next_delta() {
                    _ if t < 250 => 1,
                    d if (200..=300).contains(&(f + d)) => d,
                    d => -d,
                };
                f += d;
                d
            })
            .collect()
    } else {
        NearlyMonotoneGen::new(26, 1.5, 0.3).deltas(N)
    };
    let insert_only = |d: i64| if d < 0 { 2 } else { d };
    deltas
        .into_iter()
        .map(|d| if deletions { d } else { insert_only(d) })
        .collect()
}

fn item_stream(loud: bool) -> Vec<(u64, i64)> {
    let delete_prob = if loud { 0.45 } else { 0.05 };
    let mut gen = ItemStreamGen::new(26, UNIVERSE, 1.2, delete_prob, 16);
    (0..N).map(|_| gen.next_item_delta()).collect()
}

fn spec_for(kind: TrackerKind) -> TrackerSpec {
    let k = if kind == TrackerKind::SingleSite {
        1
    } else {
        K
    };
    let mut spec = TrackerSpec::new(kind)
        .k(k)
        .eps(0.1)
        .seed(26)
        .deletions(kind.supports_deletions());
    if kind.info().needs_universe {
        spec = spec.universe(UNIVERSE);
    }
    spec
}

fn ledger_of<In: Copy>(tracker: &mut (impl Tracker<In> + ?Sized), inputs: &[In]) -> Ledger {
    let k = tracker.k();
    let estimate = feed_runs(inputs, k, |site, run| tracker.update_run(site, run));
    let stats = tracker.stats();
    Ledger {
        msgs: MsgKind::ALL.map(|kind| stats.messages_of(kind)),
        words: stats.total_words(),
        broadcast_ops: stats.broadcast_ops(),
        request_ops: stats.request_ops(),
        estimate,
        state: fingerprint(tracker.snapshot().unwrap().payload()),
    }
}

fn computed() -> Vec<(TrackerKind, &'static str, Ledger)> {
    let mut rows = Vec::new();
    for kind in TrackerKind::ALL {
        let spec = spec_for(kind);
        for (name, loud) in [("loud", true), ("nearly-monotone", false)] {
            let ledger = if kind.problem() == Problem::Counting {
                let inputs = counter_stream(loud, kind.supports_deletions());
                ledger_of(&mut *spec.build().unwrap(), &inputs)
            } else {
                ledger_of(&mut *spec.build_item().unwrap(), &item_stream(loud))
            };
            rows.push((kind, name, ledger));
        }
    }
    rows
}

fn as_source(rows: &[(TrackerKind, &str, Ledger)]) -> String {
    let mut out = String::new();
    for (kind, name, l) in rows {
        out += &format!(
            "    (\n        TrackerKind::{kind:?},\n        {name:?},\n        \
             ledger({:?}, {}, {}, {}, {}, 0x{:016x}),\n    ),\n",
            l.msgs, l.words, l.broadcast_ops, l.request_ops, l.estimate, l.state
        );
    }
    out
}

#[test]
fn every_kind_sends_exactly_the_pinned_messages() {
    let rows = computed();
    assert!(
        rows.as_slice() == PINNED.as_slice(),
        "the message ledger moved; computed table:\n{}",
        as_source(&rows)
    );
}

/// Fingerprint of `(time, kind, site, words)` over a whole transcript.
fn transcript_print(transcript: &[MsgRecord]) -> (usize, u64) {
    let mut fold = Fingerprint::new();
    for r in transcript {
        let kind = MsgKind::ALL.iter().position(|&k| k == r.kind).unwrap() as u8;
        fold.update(&r.time.to_le_bytes());
        fold.update(&[kind]);
        fold.update(&(r.site as u64).to_le_bytes());
        fold.update(&(r.words as u64).to_le_bytes());
    }
    (transcript.len(), fold.finish())
}

#[test]
fn transcripts_keep_their_order() {
    let mut det = DeterministicTracker::sim(K, 0.1);
    det.enable_transcript();
    feed_runs(&counter_stream(true, true), K, |site, run| {
        det.step_run(site, run)
    });
    let det_print = transcript_print(det.transcript().unwrap());

    let mut exact = ExactFreqTracker::sim(K, 0.1, UNIVERSE);
    exact.enable_transcript();
    feed_runs(&item_stream(true), K, |site, run| exact.step_run(site, run));
    let tr = exact.transcript().unwrap();
    // Block starts make one site report more heavy counters than an
    // outbox holds inline, so the spill path is on this transcript.
    let widest = tr
        .chunk_by(|a, b| (a.time, a.site, a.kind) == (b.time, b.site, b.kind))
        .map(<[MsgRecord]>::len)
        .max();
    assert!(widest > Some(4), "widest same-site burst {widest:?}");
    let exact_print = transcript_print(tr);

    assert_eq!(
        (det_print, exact_print),
        (DETERMINISTIC_TRANSCRIPT, EXACT_FREQ_TRANSCRIPT),
        "transcripts moved: (len, fingerprint) deterministic, exact-freq"
    );
}

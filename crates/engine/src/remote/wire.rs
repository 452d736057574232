//! The coordinator ↔ shard-worker wire protocol.
//!
//! Every protocol message is one transport frame (see
//! `dsv_net::transport`): a versioned envelope (magic [`WIRE_MAGIC`] +
//! `u16` [`WIRE_VERSION`]), a `u8` message tag, then the fields, all in
//! the workspace codec (`dsv_net::codec`). Decoding is panic-free and
//! exact — truncation, corruption, unknown tags and trailing bytes are
//! typed [`CodecError`]s; the tests below cut every message shape at
//! every byte and flip every byte of each. Round chunks are the per-site
//! runs `run_parted` dispatches and states the versioned `TrackerState`
//! envelopes. A reply answers what was sent, in the order it was sent:
//! one `(estimate, Σδ)` per chunk of a round, then one state per shard
//! the round asked to snapshot. The coordinator knows each chunk's shard
//! and length, and pairs them with the reply into the entries the
//! in-process cut closes; a checkpoint commit rides the round frame, so
//! it costs no frame of its own.

use dsv_core::api::TrackerSpec;
use dsv_core::codec::TrackerState;
use dsv_net::codec::{CodecError, Dec, Enc};

/// Magic bytes opening every remote-protocol message.
pub const WIRE_MAGIC: [u8; 4] = *b"DSVR";

/// Current remote-protocol version. Coordinator and workers are always
/// the same build (the coordinator spawns or hand-shakes its workers), so
/// decoders read exactly this version; any other is a typed
/// [`CodecError::UnsupportedVersion`], surfaced before any shard state
/// moves (`MIGRATION.md`, format policy).
pub const WIRE_VERSION: u16 = 9;

/// One shard's inputs for one round — the per-problem input payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inputs {
    /// Counter-stream deltas (`In = i64`).
    Counts(Vec<i64>),
    /// Item-stream updates (`In = (item, δ)`).
    Items(Vec<(u64, i64)>),
}

impl Inputs {
    /// Number of inputs carried.
    pub fn len(&self) -> usize {
        match self {
            Inputs::Counts(v) => v.len(),
            Inputs::Items(v) => v.len(),
        }
    }

    /// Whether no inputs are carried.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn encode(&self, enc: &mut Enc) {
        match self {
            Inputs::Counts(v) => encode_counts(enc, v),
            Inputs::Items(v) => encode_items(enc, v),
        }
    }

    fn decode(dec: &mut Dec) -> Result<Self, CodecError> {
        match dec.u8()? {
            1 => Ok(Inputs::Counts(dec.seq_i64("count inputs")?)),
            2 => {
                let n = dec.seq_len("item inputs", 16)?;
                let items = (0..n).map(|_| Ok((dec.u64()?, dec.i64()?)));
                Ok(Inputs::Items(items.collect::<Result<_, CodecError>>()?))
            }
            tag => Err(CodecError::BadTag {
                what: "input payload",
                tag: tag as u64,
            }),
        }
    }
}

/// Write a counter-stream input run — the bytes of [`Inputs::Counts`],
/// from a borrowed slice.
pub(crate) fn encode_counts(enc: &mut Enc, deltas: &[i64]) {
    enc.u8(1);
    enc.seq_i64(deltas);
}

/// Write an item-stream input run — the bytes of [`Inputs::Items`], from
/// a borrowed slice.
pub(crate) fn encode_items(enc: &mut Enc, updates: &[(u64, i64)]) {
    enc.u8(2);
    enc.seq_len(updates.len());
    for &(item, delta) in updates {
        enc.u64(item);
        enc.i64(delta);
    }
}

/// One shard's work within a round: the contiguous input run of one feed,
/// exactly as `run_parted` would dispatch it in-process. Chunks arrive in
/// feed order and are answered in it, which is what keeps the
/// last-entry-per-shard rule (and so the merge ledger) identical to the
/// in-process path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    /// The logical shard the inputs belong to.
    pub sid: usize,
    /// The site the feed carries.
    pub site: usize,
    /// The inputs, in feed arrival order.
    pub inputs: Inputs,
}

/// A shard to install on a worker: its id and the checkpoint state to
/// restore (`None` builds a fresh replica — a shard that has never been
/// checkpointed).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardInit {
    /// The logical shard id.
    pub sid: usize,
    /// The state to restore, if any.
    pub state: Option<TrackerState>,
}

/// Coordinator → worker messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ToWorker {
    /// Install the worker's replica set: build (or restore) one tracker
    /// per shard from `spec.shard(sid)`. Sent once after the handshake of
    /// every spawn, a respawned replacement's included.
    Assign {
        /// The coordinator's tracker spec (workers derive per-shard
        /// replicas via `TrackerSpec::shard`).
        spec: TrackerSpec,
        /// The shards this worker hosts, with restore states.
        shards: Vec<ShardInit>,
    },
    /// Process one round of chunks (in the given order), then snapshot
    /// the `commit` shards, and reply with a [`ToCoord::RoundReport`]. A
    /// commit with no chunk to ride is a round with no chunks.
    Round {
        /// Round number (0-based within the current ingestion call).
        round: u64,
        /// Milliseconds to sleep before processing — 0 in production;
        /// nonzero only under an injected delay fault, so the
        /// coordinator's read timeout fires against a live-but-stalled
        /// worker.
        delay_ms: u64,
        /// The work, in feed order.
        chunks: Vec<Chunk>,
        /// The (stale) shards to snapshot once the chunks ran, ascending:
        /// empty except on a worker's last frame before a commit.
        commit: Vec<usize>,
    },
}

impl ToWorker {
    /// Encode to one transport frame payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.magic(WIRE_MAGIC, WIRE_VERSION);
        match self {
            ToWorker::Assign { spec, shards } => {
                enc.u8(1);
                spec.encode(&mut enc);
                enc.seq_len(shards.len());
                for init in shards {
                    enc.usize(init.sid);
                    match &init.state {
                        Some(state) => {
                            enc.bool(true);
                            enc.blob(&state.to_bytes());
                        }
                        None => enc.bool(false),
                    }
                }
            }
            ToWorker::Round {
                round,
                delay_ms,
                chunks,
                commit,
            } => {
                round_header(&mut enc, *round, *delay_ms, chunks.len());
                for chunk in chunks {
                    chunk_header(&mut enc, chunk.sid, chunk.site);
                    chunk.inputs.encode(&mut enc);
                }
                commit_list(&mut enc, commit);
            }
        }
        enc.into_bytes()
    }

    /// Decode one transport frame payload; must consume it exactly.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut dec = open_frame(bytes)?;
        let msg = match dec.u8()? {
            1 => {
                let spec = TrackerSpec::decode(&mut dec)?;
                let n = dec.seq_len("assigned shards", 9)?;
                let shards = (0..n).map(|_| {
                    let sid = dec.usize()?;
                    let state = match dec.bool()? {
                        true => Some(TrackerState::from_bytes(dec.blob()?)?),
                        false => None,
                    };
                    Ok(ShardInit { sid, state })
                });
                ToWorker::Assign {
                    spec,
                    shards: shards.collect::<Result<_, CodecError>>()?,
                }
            }
            3 => {
                let round = dec.u64()?;
                let delay_ms = dec.u64()?;
                let chunks = decode_chunks(&mut dec)?;
                let n = dec.seq_len("commit shards", 8)?;
                ToWorker::Round {
                    round,
                    delay_ms,
                    chunks,
                    commit: (0..n).map(|_| dec.usize()).collect::<Result<_, _>>()?,
                }
            }
            tag => {
                return Err(CodecError::BadTag {
                    what: "coordinator message",
                    tag: tag as u64,
                })
            }
        };
        dec.finish()?;
        Ok(msg)
    }
}

/// Open a frame: the magic, then exactly [`WIRE_VERSION`].
fn open_frame(bytes: &[u8]) -> Result<Dec<'_>, CodecError> {
    let mut dec = Dec::new(bytes);
    dec.magic(WIRE_MAGIC, WIRE_VERSION)?;
    Ok(dec)
}

/// Continue a [`ToWorker::Round`] frame after the envelope: tag, round,
/// delay and chunk count; `chunks` × ([`chunk_header`] + an input run)
/// and the [`commit_list`] follow. The coordinator writes round frames straight from the feed
/// slices this way, and [`ToWorker::to_bytes`] through the same writers.
pub(crate) fn round_header(enc: &mut Enc, round: u64, delay_ms: u64, chunks: usize) {
    enc.u8(3);
    enc.u64(round);
    enc.u64(delay_ms);
    enc.seq_len(chunks);
}

/// Open one chunk of a round frame; its input run ([`encode_counts`] /
/// [`encode_items`]) follows.
pub(crate) fn chunk_header(enc: &mut Enc, sid: usize, site: usize) {
    enc.usize(sid);
    enc.usize(site);
}

/// Close a [`ToWorker::Round`] frame: the shards to snapshot after its
/// chunks.
pub(crate) fn commit_list(enc: &mut Enc, shards: &[usize]) {
    enc.seq_len(shards.len());
    for &sid in shards {
        enc.usize(sid);
    }
}

fn decode_chunks(dec: &mut Dec) -> Result<Vec<Chunk>, CodecError> {
    let n = dec.seq_len("round chunks", 17)?;
    (0..n)
        .map(|_| {
            let (sid, site) = (dec.usize()?, dec.usize()?);
            Ok(Chunk {
                sid,
                site,
                inputs: Inputs::decode(dec)?,
            })
        })
        .collect()
}

/// Encoded payload length of a [`ToCoord::RoundReport`] carrying
/// `entries` chunk entries and no states — what the coordinator bounds
/// each send lead by (each report it has not read yet sits in a socket
/// buffer; one carrying states is the last its connection is sent).
pub(crate) const fn round_report_len(entries: usize) -> usize {
    // envelope (magic + version), tag, round, entry count; two 8-byte
    // words per entry; then the (zero) state count.
    6 + 1 + 8 + 8 + 16 * entries + 8
}

/// Worker → coordinator messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ToCoord {
    /// Reply to [`ToWorker::Assign`]: empty `error` on success, a
    /// human-readable build/restore failure otherwise.
    AssignAck {
        /// Empty on success.
        error: String,
    },
    /// Reply to [`ToWorker::Round`].
    RoundReport {
        /// Echo of the round number (protocol sanity).
        round: u64,
        /// Per chunk, in the order sent: its shard's estimate after the
        /// chunk and the chunk's Σδ.
        entries: Vec<(i64, i64)>,
        /// The `commit` shards' whole states after the round, in the
        /// order asked.
        states: Vec<TrackerState>,
    },
}

impl ToCoord {
    /// Encode to one transport frame payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.magic(WIRE_MAGIC, WIRE_VERSION);
        match self {
            ToCoord::AssignAck { error } => {
                enc.u8(1);
                enc.blob(error.as_bytes());
            }
            ToCoord::RoundReport {
                round,
                entries,
                states,
            } => {
                enc.u8(2);
                enc.u64(*round);
                enc.seq_len(entries.len());
                for &(estimate, sum) in entries {
                    enc.i64(estimate);
                    enc.i64(sum);
                }
                enc.seq_len(states.len());
                for state in states {
                    enc.blob(&state.to_bytes());
                }
            }
        }
        enc.into_bytes()
    }

    /// Decode one transport frame payload; must consume it exactly.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut dec = open_frame(bytes)?;
        let msg = match dec.u8()? {
            1 => ToCoord::AssignAck {
                error: String::from_utf8(dec.blob()?.to_vec()).map_err(|_| {
                    CodecError::BadValue {
                        what: "assign ack error string",
                    }
                })?,
            },
            2 => {
                let round = dec.u64()?;
                let n = dec.seq_len("round report entries", 16)?;
                let entries = (0..n).map(|_| Ok((dec.i64()?, dec.i64()?)));
                let entries = entries.collect::<Result<_, CodecError>>()?;
                let n = dec.seq_len("round report states", 8)?;
                let states = (0..n).map(|_| TrackerState::from_bytes(dec.blob()?));
                ToCoord::RoundReport {
                    round,
                    entries,
                    states: states.collect::<Result<_, CodecError>>()?,
                }
            }
            tag => {
                return Err(CodecError::BadTag {
                    what: "worker message",
                    tag: tag as u64,
                })
            }
        };
        dec.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_core::api::TrackerKind;

    fn sample_messages() -> (Vec<ToWorker>, Vec<ToCoord>) {
        let spec = TrackerSpec::new(TrackerKind::Randomized)
            .k(3)
            .eps(0.2)
            .seed(11)
            .deletions(true);
        let state = TrackerState::new(TrackerKind::Randomized, 3, vec![9; 24]);
        let to_worker = vec![
            ToWorker::Assign {
                spec,
                shards: vec![
                    ShardInit {
                        sid: 0,
                        state: None,
                    },
                    ShardInit {
                        sid: 2,
                        state: Some(state.clone()),
                    },
                ],
            },
            ToWorker::Round {
                round: 7,
                delay_ms: 0,
                chunks: vec![
                    Chunk {
                        sid: 0,
                        site: 0,
                        inputs: Inputs::Counts(vec![1, -1, 1]),
                    },
                    Chunk {
                        sid: 2,
                        site: 2,
                        inputs: Inputs::Items(vec![(5, 1), (9, -1)]),
                    },
                ],
                commit: vec![],
            },
            // A round that ends in a commit, and a commit with no chunk
            // to ride.
            ToWorker::Round {
                round: 8,
                delay_ms: 0,
                chunks: vec![Chunk {
                    sid: 2,
                    site: 2,
                    inputs: Inputs::Counts(vec![-1]),
                }],
                commit: vec![0, 2],
            },
            ToWorker::Round {
                round: 8,
                delay_ms: 0,
                chunks: vec![],
                commit: vec![2],
            },
        ];
        let to_coord = vec![
            ToCoord::AssignAck {
                error: String::new(),
            },
            ToCoord::AssignAck {
                error: "k mismatch".to_string(),
            },
            ToCoord::RoundReport {
                round: 7,
                entries: vec![(1, 1), (-4, 0)],
                states: vec![],
            },
            ToCoord::RoundReport {
                round: 8,
                entries: vec![(-5, -1)],
                states: vec![
                    state.clone(),
                    TrackerState::new(TrackerKind::Randomized, 3, vec![7; 40]),
                ],
            },
            ToCoord::RoundReport {
                round: 8,
                entries: vec![],
                states: vec![state.clone()],
            },
        ];
        (to_worker, to_coord)
    }

    #[test]
    fn every_message_shape_round_trips() {
        let (to_worker, to_coord) = sample_messages();
        for msg in &to_worker {
            assert_eq!(&ToWorker::from_bytes(&msg.to_bytes()).unwrap(), msg);
        }
        for msg in &to_coord {
            assert_eq!(&ToCoord::from_bytes(&msg.to_bytes()).unwrap(), msg);
        }
    }

    #[test]
    fn report_length_formula_matches_the_encoder() {
        for n in [0usize, 1, 7] {
            let report = ToCoord::RoundReport {
                round: 5,
                entries: vec![(-9, 2); n],
                states: vec![],
            };
            assert_eq!(report.to_bytes().len(), round_report_len(n));
        }
    }

    #[test]
    fn truncation_at_every_byte_is_a_typed_error() {
        let (to_worker, to_coord) = sample_messages();
        for msg in &to_worker {
            let bytes = msg.to_bytes();
            for cut in 0..bytes.len() {
                assert!(ToWorker::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
            }
        }
        for msg in &to_coord {
            let bytes = msg.to_bytes();
            for cut in 0..bytes.len() {
                assert!(ToCoord::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
            }
        }
    }

    #[test]
    fn flipping_any_byte_never_panics() {
        // A flipped byte may still decode (an input value, a round
        // number); it must never panic, in either direction's decoder.
        let (to_worker, to_coord) = sample_messages();
        let frames = to_worker.iter().map(ToWorker::to_bytes);
        for frame in frames.chain(to_coord.iter().map(ToCoord::to_bytes)) {
            for pos in 0..frame.len() {
                for flip in [0x01u8, 0x80, 0xff] {
                    let mut bytes = frame.clone();
                    bytes[pos] ^= flip;
                    let _ = ToWorker::from_bytes(&bytes);
                    let _ = ToCoord::from_bytes(&bytes);
                }
            }
        }
    }

    #[test]
    fn older_generations_are_refused() {
        // Every message shape, re-stamped with each retired version word
        // (v1: untagged states and flag-less pulls; v2: before the
        // `Rounds` envelope; v3: with it; v4: delta-or-full state pulls;
        // v5: `Attach` and the shard count in `Assign`; v6: shard-keyed
        // report entries and states; v7: `Finish`; v8: the separate
        // `Checkpoint` pull and its `CheckpointReport`).
        let (to_worker, to_coord) = sample_messages();
        assert_eq!(WIRE_VERSION, 9);
        for old in 1..WIRE_VERSION {
            let refused = CodecError::UnsupportedVersion {
                found: old,
                supported: WIRE_VERSION,
            };
            let restamp = |mut bytes: Vec<u8>| {
                bytes[4..6].copy_from_slice(&old.to_le_bytes());
                bytes
            };
            for msg in &to_worker {
                let bytes = restamp(msg.to_bytes());
                assert_eq!(ToWorker::from_bytes(&bytes), Err(refused));
            }
            for msg in &to_coord {
                let bytes = restamp(msg.to_bytes());
                assert_eq!(ToCoord::from_bytes(&bytes), Err(refused));
            }
        }
    }

    #[test]
    fn envelope_and_tag_corruption_are_specific_errors() {
        let bytes = ToWorker::Round {
            round: 0,
            delay_ms: 0,
            chunks: vec![],
            commit: vec![],
        }
        .to_bytes();
        let mut alien = bytes.clone();
        alien[0] = b'X';
        assert!(matches!(
            ToWorker::from_bytes(&alien),
            Err(CodecError::BadMagic { .. })
        ));
        let mut future = bytes.clone();
        future[4] = (WIRE_VERSION + 1) as u8;
        assert!(matches!(
            ToWorker::from_bytes(&future),
            Err(CodecError::UnsupportedVersion { .. })
        ));
        let mut bad_tag = bytes.clone();
        bad_tag[6] = 0xEE;
        assert!(matches!(
            ToWorker::from_bytes(&bad_tag),
            Err(CodecError::BadTag { .. })
        ));
        let mut trailing = bytes;
        trailing.push(0);
        assert!(matches!(
            ToWorker::from_bytes(&trailing),
            Err(CodecError::Trailing { left: 1 })
        ));
    }
}

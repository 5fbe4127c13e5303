//! Property tests for the flight-recorder codec: every event and record
//! variant round-trips bit-exactly, and truncating a recorder file at
//! *any* byte offset recovers exactly the longest valid frame prefix —
//! the same torn-tail discipline as the WAL.

use proptest::prelude::*;
use pstm_obs::event::AbortOrigin;
use pstm_obs::frame::{next_frame, FrameStep};
use pstm_obs::postmortem::analyze;
use pstm_obs::prof::PhaseProfile;
use pstm_obs::recorder::{
    decode_entry, decode_event, decode_recorder_bytes, encode_entry, encode_event, get_uvarint,
    put_uvarint, RecorderEntry, ENGINE_SHARD,
};
use pstm_obs::span::SpanKind;
use pstm_obs::{
    read_recorder, MetricsRegistry, ReactorCensus, Recorder, Sink, TraceEvent, TraceRecord,
};
use pstm_types::{AbortReason, MemberId, ObjectId, OpClass, ResourceId, Timestamp, TxnId};

fn arb_txn() -> impl Strategy<Value = TxnId> {
    any::<u64>().prop_map(TxnId)
}

fn arb_resource() -> impl Strategy<Value = ResourceId> {
    (any::<u32>(), any::<u16>()).prop_map(|(o, m)| ResourceId::new(ObjectId(o), MemberId(m)))
}

fn arb_class() -> impl Strategy<Value = OpClass> {
    prop::sample::select(OpClass::ALL.to_vec())
}

fn arb_reason() -> impl Strategy<Value = AbortReason> {
    prop_oneof![
        Just(AbortReason::Deadlock),
        Just(AbortReason::LockTimeout),
        Just(AbortReason::SleepTimeout),
        Just(AbortReason::SleepConflict),
        Just(AbortReason::User),
    ]
}

fn arb_origin() -> impl Strategy<Value = AbortOrigin> {
    prop_oneof![
        Just(AbortOrigin::User),
        Just(AbortOrigin::Request),
        Just(AbortOrigin::Commit),
        Just(AbortOrigin::Awake),
        Just(AbortOrigin::Tick),
        Just(AbortOrigin::Promotion),
    ]
}

fn arb_span_kind() -> impl Strategy<Value = SpanKind> {
    prop_oneof![
        Just(SpanKind::Session),
        Just(SpanKind::AdmissionWait),
        Just(SpanKind::Work),
        Just(SpanKind::Sleep),
        arb_resource().prop_map(|resource| SpanKind::Blocked { resource }),
        Just(SpanKind::Reconcile),
        any::<u32>().prop_map(|attempt| SpanKind::SstAttempt { attempt }),
        Just(SpanKind::Commit),
        Just(SpanKind::Abort),
        Just(SpanKind::Queued),
    ]
}

/// Every one of the 31 [`TraceEvent`] variants, with arbitrary payloads.
fn arb_event() -> impl Strategy<Value = TraceEvent> {
    prop_oneof![
        arb_txn().prop_map(|txn| TraceEvent::TxnBegin { txn }),
        (arb_txn(), arb_resource(), arb_class())
            .prop_map(|(txn, resource, class)| TraceEvent::OpRequested { txn, resource, class }),
        (arb_txn(), arb_resource(), arb_class(), any::<bool>(), any::<bool>()).prop_map(
            |(txn, resource, class, shared, bypassed_sleeper)| TraceEvent::OpGranted {
                txn,
                resource,
                class,
                shared,
                bypassed_sleeper,
            }
        ),
        (arb_txn(), arb_resource(), arb_class(), any::<u32>()).prop_map(
            |(txn, resource, class, queue_depth)| TraceEvent::OpWaiting {
                txn,
                resource,
                class,
                queue_depth,
            }
        ),
        (arb_txn(), arb_resource())
            .prop_map(|(txn, resource)| TraceEvent::StarvationDenied { txn, resource }),
        (arb_txn(), arb_resource())
            .prop_map(|(txn, resource)| TraceEvent::AdmissionDenied { txn, resource }),
        (arb_txn(), prop::collection::vec(arb_txn(), 0..8))
            .prop_map(|(txn, cycle)| TraceEvent::DeadlockVictim { txn, cycle }),
        (arb_txn(), arb_resource())
            .prop_map(|(txn, resource)| TraceEvent::Reconciled { txn, resource }),
        (arb_txn(), any::<u32>()).prop_map(|(txn, writes)| TraceEvent::SstAttempt { txn, writes }),
        (arb_txn(), any::<u32>()).prop_map(|(txn, attempt)| TraceEvent::SstRetry { txn, attempt }),
        arb_txn().prop_map(|txn| TraceEvent::SstApplied { txn }),
        arb_txn().prop_map(|txn| TraceEvent::Committed { txn }),
        (arb_txn(), arb_reason(), arb_origin())
            .prop_map(|(txn, reason, origin)| TraceEvent::Aborted { txn, reason, origin }),
        arb_txn().prop_map(|txn| TraceEvent::TxnSlept { txn }),
        arb_txn().prop_map(|txn| TraceEvent::TxnAwoke { txn }),
        (arb_txn(), arb_resource(), any::<bool>()).prop_map(|(txn, resource, exclusive)| {
            TraceEvent::LockGranted { txn, resource, exclusive }
        }),
        (arb_txn(), arb_resource())
            .prop_map(|(txn, resource)| TraceEvent::LockUpgrade { txn, resource }),
        (arb_txn(), arb_resource(), any::<bool>(), any::<u32>()).prop_map(
            |(txn, resource, exclusive, queue_depth)| TraceEvent::LockWaiting {
                txn,
                resource,
                exclusive,
                queue_depth,
            }
        ),
        arb_txn().prop_map(|txn| TraceEvent::EngineInsert { txn }),
        arb_txn().prop_map(|txn| TraceEvent::EngineUpdate { txn }),
        arb_txn().prop_map(|txn| TraceEvent::EngineDelete { txn }),
        arb_txn().prop_map(|txn| TraceEvent::EngineCommit { txn }),
        arb_txn().prop_map(|txn| TraceEvent::EngineAbort { txn }),
        (arb_txn(), any::<u32>())
            .prop_map(|(leader, members)| TraceEvent::GroupCommit { leader, members }),
        (any::<u64>(), any::<u64>()).prop_map(|(lsn, bytes)| TraceEvent::WalFlush { lsn, bytes }),
        (arb_txn(), arb_span_kind(), prop_oneof![Just(None), any::<u64>().prop_map(Some)])
            .prop_map(|(txn, kind, wall_us)| TraceEvent::SpanOpen { txn, kind, wall_us }),
        (arb_txn(), arb_span_kind(), prop_oneof![Just(None), any::<u64>().prop_map(Some)])
            .prop_map(|(txn, kind, wall_us)| TraceEvent::SpanClose { txn, kind, wall_us }),
        arb_txn().prop_map(|txn| TraceEvent::LinkDown { txn }),
        arb_txn().prop_map(|txn| TraceEvent::LinkUp { txn }),
        (".{0,24}", ".{0,12}")
            .prop_map(|(site, action)| TraceEvent::FaultInjected { site, action }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(winners, records)| TraceEvent::Recovered { winners, records }),
    ]
}

fn arb_record() -> impl Strategy<Value = TraceRecord> {
    (any::<u64>(), any::<u64>(), prop_oneof![Just(None), any::<u64>().prop_map(Some)], arb_event())
        .prop_map(|(seq, at, thread, event)| TraceRecord { seq, at: Timestamp(at), thread, event })
}

fn arb_census() -> impl Strategy<Value = ReactorCensus> {
    (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
        |(running, waiting, committing, sleeping, finished)| ReactorCensus {
            running,
            waiting,
            committing,
            sleeping,
            finished,
        },
    )
}

fn arb_entry() -> impl Strategy<Value = RecorderEntry> {
    prop_oneof![
        (any::<u32>(), prop_oneof![Just(None), any::<u64>().prop_map(Some)])
            .prop_map(|(shards, wall_base_us)| RecorderEntry::Meta { shards, wall_base_us }),
        (prop_oneof![0u32..8, Just(ENGINE_SHARD)], arb_record())
            .prop_map(|(shard, rec)| RecorderEntry::Event { shard, rec }),
        (
            prop_oneof![Just(None), any::<u64>().prop_map(Some)],
            any::<u64>(),
            prop::collection::vec(any::<u64>(), 0..48),
            prop::collection::vec(any::<u64>(), 9..10),
            prop::collection::vec(any::<u64>(), 9..10),
            prop_oneof![Just(None), arb_census().prop_map(Some)],
        )
            .prop_map(|(wall_us, at, counters, phase_ns, phase_ops, reactor)| {
                RecorderEntry::Snapshot {
                    wall_us,
                    at: Timestamp(at),
                    counters,
                    phase_ns,
                    phase_ops,
                    reactor,
                }
            }),
        any::<u64>().prop_map(|count| RecorderEntry::Drop { count }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn prop_event_round_trips(ev in arb_event()) {
        let mut buf = Vec::new();
        encode_event(&ev, &mut buf);
        let mut pos = 0usize;
        let back = decode_event(&buf, &mut pos);
        prop_assert_eq!(back.as_ref(), Some(&ev));
        prop_assert_eq!(pos, buf.len(), "decode must consume the whole encoding");
    }

    #[test]
    fn prop_entry_round_trips(seq in any::<u64>(), entry in arb_entry()) {
        let mut buf = Vec::new();
        encode_entry(seq, &entry, &mut buf);
        let back = decode_entry(&buf);
        prop_assert_eq!(back, Some((seq, entry)));
    }

    #[test]
    fn prop_event_decode_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        let mut pos = 0usize;
        let _ = decode_event(&bytes, &mut pos); // must not panic
        let _ = decode_entry(&bytes);
    }

    #[test]
    fn prop_recorder_decode_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode_recorder_bytes(&bytes); // must not panic
    }

    #[test]
    fn prop_uvarint_round_trips(v in any::<u64>()) {
        let mut buf = Vec::new();
        put_uvarint(&mut buf, v);
        let mut pos = 0usize;
        prop_assert_eq!(get_uvarint(&buf, &mut pos), Some(v));
        prop_assert_eq!(pos, buf.len());
    }
}

/// Writes `events` through a real recorder file and returns its bytes.
fn recorded_bytes(events: &[TraceRecord]) -> Vec<u8> {
    let path = std::env::temp_dir().join(format!(
        "pstm-rec-prop-{}-{:p}.rec",
        std::process::id(),
        &events[0]
    ));
    let rec = Recorder::create(&path, 1 << 16, true).expect("create recorder");
    rec.write_meta(2, Some(1));
    let mut sink = rec.sink(0);
    for ev in events {
        sink.record(ev);
    }
    rec.flush();
    let bytes = std::fs::read(&path).expect("read back");
    std::fs::remove_file(&path).ok();
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cutting the file at EVERY prefix length recovers exactly the
    /// longest valid frame prefix: decoding is panic-free, monotone in
    /// the cut, entry-wise a prefix of the full decode, and steps up by
    /// one entry exactly at frame boundaries.
    #[test]
    fn prop_every_truncation_recovers_longest_valid_prefix(
        recs in prop::collection::vec(arb_record(), 1..12),
    ) {
        let bytes = recorded_bytes(&recs);
        let full = decode_recorder_bytes(&bytes).expect("full image decodes");
        prop_assert_eq!(full.entries.len(), recs.len() + 1, "meta + every event");

        // Frame boundaries within segment 0 (capacity is far larger than
        // a dozen records, so nothing wrapped into segment 1).
        const HEADER: usize = 24;
        let seg = &bytes[HEADER..];
        let mut boundaries = vec![HEADER];
        let mut pos = 0usize;
        while let FrameStep::Frame { end, .. } = next_frame(seg, pos) {
            pos = end;
            boundaries.push(HEADER + end);
        }
        prop_assert_eq!(boundaries.len() - 1, full.entries.len());

        let mut prev_count = 0usize;
        for cut in 0..=bytes.len() {
            let got = match decode_recorder_bytes(&bytes[..cut]) {
                Ok(replay) => replay,
                // Cuts inside the file header are rejected, not recovered.
                Err(_) => {
                    prop_assert!(cut < HEADER, "valid header must decode (cut {cut})");
                    continue;
                }
            };
            let expect = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            prop_assert_eq!(
                got.entries.len(),
                expect,
                "cut {} must recover the longest valid prefix",
                cut
            );
            prop_assert!(got.entries.len() >= prev_count, "recovery is monotone in the cut");
            prop_assert_eq!(&got.entries[..], &full.entries[..expect], "recovered entries are a prefix");
            prev_count = got.entries.len();
        }
        prop_assert_eq!(prev_count, full.entries.len());
    }
}

/// Commits parked at a group-commit station when the process died are
/// visible in the post-mortem: the reactor census rides the snapshot
/// record through the recorder file into `pstm_postmortem`'s report.
#[test]
fn parked_commits_survive_the_recorder_into_the_postmortem() {
    let path = std::env::temp_dir().join(format!("pstm-rec-census-{}.rec", std::process::id()));
    let rec = Recorder::create(&path, 1 << 16, true).expect("create recorder");
    rec.write_meta(2, Some(1));
    let census = ReactorCensus { running: 1, waiting: 2, committing: 5, sleeping: 7, finished: 11 };
    let (reg, prof) = (MetricsRegistry::new(), PhaseProfile::empty());
    rec.snapshot_delta(Timestamp(10), &reg, &prof, Some(census));
    // A later snapshot without a reactor keeps the last census known.
    rec.snapshot_delta(Timestamp(20), &reg, &prof, None);
    rec.flush();
    let replay = read_recorder(&path).expect("read back");
    std::fs::remove_file(&path).ok();

    let pm = analyze(&replay);
    assert_eq!(pm.snapshots, 2);
    assert_eq!(pm.reactor, Some(census));
    let report = pm.render();
    assert!(
        report.contains("running=1 waiting=2 committing=5 sleeping=7 finished=11"),
        "census missing from the report:\n{report}"
    );
}

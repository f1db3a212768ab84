//! Format-parity property suite for the two trace codecs.
//!
//! Over 64 randomized workloads (varying host counts, horizons, seeds
//! and chaos-range VM ids), the compact binary format and the JSON
//! format must be lossless and mutually bit-identical:
//!
//! * binary round-trip: `to_binary` → `from_binary` reproduces every
//!   event exactly (`Trace: PartialEq` covers each field);
//! * JSON round-trip: `to_json` → `from_json` ditto, and re-serialising
//!   the decoded trace reproduces the document byte for byte;
//! * cross-format: the JSON of a binary-round-tripped trace equals the
//!   JSON of the original, byte for byte — replaying either encoding
//!   can never diverge;
//! * the streaming binary writer matches the one-shot encoder byte for
//!   byte;
//! * `from_json` canonicalises: a document whose events are out of order
//!   parses to the canonical trace.
//!
//! Plus the failure side: corrupt or truncated binary headers/bodies must
//! produce clean [`TraceCodecError`]s, and truncated or non-JSON documents
//! a `serde_json` error — never a panic or a silently short trace.

use lava_core::time::{Duration, SimTime};
use lava_core::vm::VmId;
use lava_sim::trace::{Trace, TraceCodecError, FORMAT_VERSION, MAGIC};
use lava_sim::workload::{PoolConfig, WorkloadGenerator};

/// Deterministic per-case workload shape: small but varied (the codecs
/// are O(events), so a few hundred events per case exercise every code
/// path — flags, deltas, equal-time orderings — without slowing tier-1).
fn workload(case: u64) -> PoolConfig {
    PoolConfig {
        hosts: 4 + (case % 5) as usize * 4,
        duration: Duration::from_hours(6 + (case % 3) * 9),
        seed: 0x5eed_0000 + case * 7919,
        ..PoolConfig::default()
    }
}

#[test]
fn binary_and_json_codecs_are_lossless_and_bit_identical() {
    for case in 0..64u64 {
        let mut trace = WorkloadGenerator::new(workload(case)).generate();
        if case % 4 == 0 {
            // Mix in spill-range ids (the chaos-storm namespace) so the
            // zigzag vm-id deltas cross the dense/sparse boundary.
            let mut events = trace.events().to_vec();
            let base = 1u64 << 48;
            let at = SimTime(1000 + case);
            events.push(lava_core::events::TraceEvent::create(
                at,
                VmId(base + case),
                lava_core::vm::VmSpec::builder(lava_core::resources::Resources::cores_gib(1, 2))
                    .build(),
                Duration::from_hours(1),
            ));
            events.push(lava_core::events::TraceEvent::exit(
                at + Duration::from_hours(1),
                VmId(base + case),
            ));
            trace = Trace::new(trace.pool(), events);
        }

        let binary = trace.to_binary();
        let via_binary = Trace::from_binary(&binary).unwrap_or_else(|e| {
            panic!("case {case}: binary round-trip failed: {e}");
        });
        assert_eq!(trace, via_binary, "case {case}: binary round-trip lossy");

        let json = trace.to_json().expect("serializes");
        let via_json = Trace::from_json(&json).unwrap_or_else(|e| {
            panic!("case {case}: JSON round-trip failed: {e}");
        });
        assert_eq!(trace, via_json, "case {case}: JSON round-trip lossy");

        // Cross-format bit parity: both decoded traces re-serialize to
        // the identical JSON bytes.
        assert_eq!(
            via_binary.to_json().expect("serializes"),
            json,
            "case {case}: binary-decoded trace diverges from JSON"
        );

        assert_eq!(
            via_json.to_json().expect("serializes"),
            json,
            "case {case}: JSON-decoded trace re-serializes differently"
        );

        // The streaming writer is byte-identical to the one-shot encoder.
        let mut streamed_binary = Vec::new();
        trace.write_binary(&mut streamed_binary).expect("writes");
        assert_eq!(streamed_binary, binary, "case {case}");
    }
}

#[test]
fn corrupt_and_truncated_inputs_error_cleanly() {
    let trace = WorkloadGenerator::new(workload(3)).generate();
    let good = trace.to_binary();
    assert_eq!(&good[..4], &MAGIC);
    assert_eq!(good[4], FORMAT_VERSION);

    // Wrong magic.
    let mut bad = good.clone();
    bad[0] ^= 0xff;
    assert!(matches!(
        Trace::from_binary(&bad),
        Err(TraceCodecError::BadMagic)
    ));

    // Future version byte.
    let mut bad = good.clone();
    bad[4] = 99;
    assert!(matches!(
        Trace::from_binary(&bad),
        Err(TraceCodecError::UnsupportedVersion(99))
    ));

    // Truncations at every prefix of the header and at a mid-body cut:
    // always a clean error, never a panic or a silently short trace.
    for cut in [0usize, 1, 4, 12, 24] {
        assert!(
            Trace::from_binary(&good[..cut]).is_err(),
            "header truncated at {cut} must error"
        );
    }
    let body_cut = good.len() - good.len() / 3;
    assert!(
        Trace::from_binary(&good[..body_cut]).is_err(),
        "truncated body must error"
    );

    // Truncated JSON document, and something that is not JSON at all.
    let json = trace.to_json().expect("serializes");
    let cut = json.len() / 2;
    assert!(
        Trace::from_json(&json[..cut]).is_err(),
        "truncated JSON must error"
    );
    assert!(Trace::from_json("not json at all").is_err());
}

#[test]
fn json_with_out_of_order_events_parses_to_the_canonical_trace() {
    let trace = WorkloadGenerator::new(workload(5)).generate();
    assert!(trace.events().len() > 100);
    let mut reversed = trace.events().to_vec();
    reversed.reverse();
    let pool = serde_json::to_string(&trace.pool()).expect("serializes");
    let events = serde_json::to_string(&reversed).expect("serializes");
    let json = format!("{{\"pool\":{pool},\"events\":{events}}}");
    assert_ne!(json, trace.to_json().expect("serializes"));
    let parsed = Trace::from_json(&json).expect("parses");
    assert_eq!(parsed, trace, "from_json left the events unsorted");
}

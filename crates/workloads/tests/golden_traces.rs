//! Golden trace pins: the exact event stream every microbenchmark and a
//! WHISPER benchmark emit at a tiny configuration, pinned as an FNV-1a
//! digest. Any change to the runtime's lookup structures (or anything
//! else under the generators) must keep these streams bit-identical; a
//! digest move means the simulated results move too.

use pmo_trace::block::pack_record;
use pmo_trace::RecordedTrace;
use pmo_workloads::{MicroBench, MicroConfig, WhisperBench, WhisperConfig, WhisperWorkload};
use pmo_workloads::{MicroWorkload, Workload};

/// FNV-1a over every event's packed record fields (the lossless
/// `(tag, a, b, c, d)` packing the PMOB block and trace file formats
/// store), little-endian, so the pin follows the events and not how
/// they print.
fn digest(trace: &RecordedTrace) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for ev in trace.events() {
        let (tag, a, b, c, d) = pack_record(ev);
        let bytes = [tag]
            .into_iter()
            .chain(a.to_le_bytes())
            .chain(b.to_le_bytes())
            .chain([c])
            .chain(d.to_le_bytes());
        for byte in bytes {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn record(workload: &mut dyn Workload) -> RecordedTrace {
    let mut trace = RecordedTrace::new();
    workload.generate(&mut trace);
    trace
}

fn tiny_micro() -> MicroConfig {
    MicroConfig {
        pmos: 12,
        active_pmos: 8,
        pmo_bytes: 1 << 20,
        initial_nodes: 16,
        ops: 200,
        insert_pct: 70,
        value_bytes: 64,
        seed: 0x601d,
    }
}

#[test]
fn micro_traces_match_their_golden_digests() {
    let golden: [(MicroBench, usize, u64); 5] = [
        (MicroBench::Avl, 26_064, 0x67f4_9bed_0677_3aca),
        (MicroBench::Rbt, 18_233, 0x03d7_f6d0_bc76_f295),
        (MicroBench::BplusTree, 14_762, 0x7253_5157_8f1f_c126),
        (MicroBench::LinkedList, 16_549, 0x00a8_1dbc_c77b_e389),
        (MicroBench::StringSwap, 10_324, 0xdf86_6dc0_1136_815a),
    ];
    for (bench, events, want) in golden {
        let trace = record(&mut MicroWorkload::new(bench, tiny_micro()));
        assert_eq!((trace.len(), digest(&trace)), (events, want), "{bench} trace moved");
    }
}

#[test]
fn whisper_trace_matches_its_golden_digest() {
    let config = WhisperConfig {
        txns: 60,
        pmo_bytes: 1 << 22,
        per_access_guard: false,
        records: 64,
        seed: 0x601d,
    };
    let trace = record(&mut WhisperWorkload::new(WhisperBench::Tpcc, config));
    assert_eq!((trace.len(), digest(&trace)), (2_784, 0x5e60_a5b4_86d9_a277), "TPCC trace moved");
}

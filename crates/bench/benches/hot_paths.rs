//! Per-operation costs of the two host layers every audited campaign
//! cell pays per event: the runtime's accessors (workload generation)
//! and the permission-window audit. One named row per operation, in
//! ns/op, over the multi-PMO baseline shape: 256 attached 8 MB pools,
//! every one read-granted.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use pmo_runtime::{Mode, Oid, PmRuntime};
use pmo_trace::{NullSink, Perm, PermAudit, PmoId, TraceEvent, TraceSink};

const POOLS: u32 = 256;
const POOL_BYTES: u64 = 8 << 20;
/// Co-prime with `POOLS`: consecutive operations visit different pools.
const STRIDE: usize = 97;
const OPS: usize = 1_000_000;

/// A runtime with `POOLS` pools and one 64-byte object in each.
fn runtime_with_objects() -> (PmRuntime, Vec<Oid>) {
    let mut rt = PmRuntime::new();
    let mut sink = NullSink::new();
    let objects = (0..POOLS)
        .map(|i| {
            let pool = rt
                .pool_create(&format!("pmo-{i:04}"), POOL_BYTES, Mode::private(), &mut sink)
                .expect("pool");
            rt.pmalloc(pool, 64, &mut sink).expect("object")
        })
        .collect();
    (rt, objects)
}

fn runtime_accessors(c: &mut Criterion) {
    let (mut rt, objects) = runtime_with_objects();
    let mut sink = NullSink::new();
    let mut group = c.benchmark_group("hot_path");
    group.sample_size(OPS);
    let mut i = 0;
    group.bench_function("rt_read_u64", |b| {
        b.iter(|| {
            i = (i + STRIDE) % objects.len();
            black_box(rt.read_u64(objects[i], 8, &mut sink).expect("read"))
        });
    });
    group.bench_function("rt_write_u64", |b| {
        b.iter(|| {
            i = (i + STRIDE) % objects.len();
            rt.write_u64(objects[i], 8, i as u64, &mut sink).expect("write");
        });
    });
    group.bench_function("rt_persist_line", |b| {
        b.iter(|| {
            i = (i + STRIDE) % objects.len();
            rt.persist(objects[i], 0, 64, &mut sink).expect("persist");
        });
    });
    group.finish();
}

/// The baseline policy's auditor after `POOLS` attaches, each pool
/// read-granted (the micro benchmarks' always-readable baseline).
fn audit_with_grants() -> PermAudit {
    let mut audit = PermAudit::with_max_open_windows(usize::MAX);
    for i in 1..=POOLS {
        let pmo = PmoId::new(i);
        audit.event(TraceEvent::Attach {
            pmo,
            base: u64::from(i) << 30,
            size: POOL_BYTES,
            nvm: true,
        });
        audit.event(TraceEvent::SetPerm { pmo, perm: Perm::ReadOnly });
    }
    audit
}

fn audit_events(c: &mut Criterion) {
    let mut group = c.benchmark_group("hot_path");
    group.sample_size(OPS);
    let mut audit = audit_with_grants();
    let pmo = PmoId::new(POOLS / 2);
    let base = u64::from(pmo.raw()) << 30;
    audit.event(TraceEvent::SetPerm { pmo, perm: Perm::ReadWrite });
    let mut off = 0u64;
    // A run of accesses to one pool, as inside one operation.
    group.bench_function("audit_access_256_grants", |b| {
        b.iter(|| {
            off = (off + 72) % POOL_BYTES;
            audit.event(TraceEvent::Load { va: base + off, size: 8 });
        });
    });
    // Every access in a different pool than the last, so the auditor's
    // one-entry region and grant caches never hit.
    let mut i = 0u64;
    group.bench_function("audit_access_miss_256_grants", |b| {
        b.iter(|| {
            i = (i + STRIDE as u64) % u64::from(POOLS);
            audit.event(TraceEvent::Load { va: ((i + 1) << 30) + 64, size: 8 });
        });
    });
    black_box(audit.violations().len());
    let mut audit = audit_with_grants();
    let mut i = 0u32;
    group.bench_function("audit_setperm_256_grants", |b| {
        b.iter(|| {
            i += 1;
            // Alternate open/close on a rotating pool: each pair is one
            // operation's write window.
            let pmo = PmoId::new((i / 2 * STRIDE as u32) % POOLS + 1);
            let perm = if i.is_multiple_of(2) { Perm::ReadWrite } else { Perm::ReadOnly };
            audit.event(TraceEvent::SetPerm { pmo, perm });
        });
    });
    black_box(audit.violations().len());
    group.finish();
}

criterion_group!(benches, runtime_accessors, audit_events);
criterion_main!(benches);

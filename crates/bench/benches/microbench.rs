//! Criterion microbenchmarks of the simulator's hot paths: address
//! decode, prefetch-buffer operations, the bank timing state machine, the
//! CAMPS tables, a loaded vault-controller tick, and an end-to-end
//! mini-simulation (simulator throughput).
//!
//! Run: `cargo bench -p camps-bench --bench microbench`

use camps::experiment::{run_mix, RunLength};
use camps_dram::bank::{Bank, Cause, DramCmd};
use camps_dram::timing::TimingCpu;
use camps_obs::Profiler;
use camps_prefetch::buffer::PrefetchBuffer;
use camps_prefetch::replacement::ReplacementKind;
use camps_prefetch::scheme::SchemeKind;
use camps_prefetch::tables::ConflictTable;
use camps_types::addr::{PhysAddr, RowKey};
use camps_types::config::SystemConfig;
use camps_types::request::{AccessKind, CoreId, MemRequest, RequestId};
use camps_vault::VaultController;
use camps_workloads::Mix;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_addr_decode(c: &mut Criterion) {
    let cfg = SystemConfig::paper_default();
    let m = cfg.hmc.address_mapping().unwrap();
    c.bench_function("addr/decode_encode_roundtrip", |b| {
        let mut a = 0x1234_5678u64;
        b.iter(|| {
            a = a.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            let d = m.decode(PhysAddr(black_box(a) & 0xFFFF_FFFF));
            black_box(m.encode(&d))
        });
    });
}

fn bench_prefetch_buffer(c: &mut Criterion) {
    for (name, policy) in [
        ("lru", ReplacementKind::Lru),
        ("util_recency", ReplacementKind::UtilRecency),
    ] {
        c.bench_function(&format!("buffer/insert_access_evict/{name}"), |b| {
            let mut buf = PrefetchBuffer::new(16, 16, policy);
            let mut row = 0u32;
            b.iter(|| {
                row = row.wrapping_add(1);
                let key = RowKey {
                    bank: (row % 16) as u16,
                    row,
                };
                buf.insert(key, u64::from(row));
                black_box(buf.access(key, (row % 16) as u16, u64::from(row), false));
            });
        });
    }
}

fn bench_bank_fsm(c: &mut Criterion) {
    let cfg = SystemConfig::paper_default();
    let t = TimingCpu::from_config(&cfg.dram, cfg.cpu.freq_hz);
    c.bench_function("dram/act_read_pre_cycle", |b| {
        let act = DramCmd::Act {
            bank: 0,
            row: 5,
            cause: Cause::Demand,
        };
        let rd = DramCmd::Rd {
            bank: 0,
            cause: Cause::Demand,
        };
        let pre = DramCmd::Pre { bank: 0 };
        let mut bank = Bank::new();
        let mut now = 0u64;
        b.iter(|| {
            now = now.max(bank.ready_at(&act).unwrap());
            bank.apply(act, now, &t);
            now = bank.ready_at(&rd).unwrap();
            black_box(bank.apply(rd, now, &t));
            now = bank.ready_at(&pre).unwrap();
            bank.apply(pre, now, &t);
        });
    });
}

fn bench_conflict_table(c: &mut Criterion) {
    c.bench_function("tables/ct_insert_probe", |b| {
        let mut ct = ConflictTable::new(32);
        let mut row = 0u32;
        b.iter(|| {
            row = row.wrapping_add(7);
            let key = RowKey {
                bank: (row % 16) as u16,
                row: row % 64,
            };
            ct.insert(key, 1);
            black_box(ct.contains(RowKey {
                bank: 0,
                row: row % 64,
            }));
        });
    });
}

fn bench_vault_tick(c: &mut Criterion) {
    let cfg = SystemConfig::paper_default();
    let m = cfg.hmc.address_mapping().unwrap();
    c.bench_function("vault/loaded_tick", |b| {
        let mut v = VaultController::new(0, &cfg, SchemeKind::CampsMod).expect("valid config");
        let mut now = 0u64;
        let mut id = 0u64;
        let mut out = Vec::new();
        b.iter(|| {
            now += 1;
            // Keep the queue warm with a rotating access pattern.
            if v.stats().queue_rejects.get() == 0 && now.is_multiple_of(7) {
                id += 1;
                let d = camps_types::addr::DecodedAddr {
                    vault: 0,
                    bank: (id % 16) as u16,
                    row: (id % 64) as u32,
                    col: (id % 16) as u16,
                    offset: 0,
                };
                let req = MemRequest {
                    id: RequestId(id),
                    addr: m.encode(&d),
                    kind: AccessKind::Read,
                    core: CoreId(0),
                    created_at: now,
                };
                let _ = v.try_enqueue(req, d, now);
            }
            v.tick(now, &mut out, &mut Profiler::off());
            out.clear();
        });
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    let cfg = SystemConfig::paper_default();
    let len = RunLength {
        warmup_instructions: 1_000,
        instructions: 4_000,
        max_cycles: 500_000,
    };
    let mut group = c.benchmark_group("system");
    group.sample_size(10);
    group.bench_function("mini_run_hm1_campsmod", |b| {
        b.iter(|| {
            let mix = Mix::by_id("HM1").unwrap();
            black_box(run_mix(&cfg, mix, SchemeKind::CampsMod, &len, 42).expect("bench run"))
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_addr_decode,
    bench_prefetch_buffer,
    bench_bank_fsm,
    bench_conflict_table,
    bench_vault_tick,
    bench_end_to_end
);
criterion_main!(benches);

//! Table II runtime columns: HBA vs EA mapping time per circuit on
//! 10%-defective optimum-size crossbars.
//!
//! The paper reports HBA 1–2 orders of magnitude faster than EA on the
//! large circuits; these benches regenerate that comparison, for both the
//! bitset `MatchEngine` calls `xbar run table2` makes and the dense
//! `reference` mappers the equivalence tests pin it to. End-to-end
//! numbers for the product come from the repository benchmark
//! (`perfbench/`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use xbar_bench::{mapping_workload, TABLE2_BENCH_CIRCUITS};
use xbar_core::{reference, MatchEngine};

fn bench_hba_vs_ea(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2_mapping");
    group.sample_size(10);
    for name in TABLE2_BENCH_CIRCUITS {
        let workload = mapping_workload(name, 4, 2018);
        group.bench_with_input(BenchmarkId::new("hba", name), &workload, |b, w| {
            let mut engine = MatchEngine::new();
            b.iter(|| {
                for cm in &w.defect_maps {
                    black_box(engine.hybrid_success(&w.fm, cm).0);
                }
            });
        });
        group.bench_with_input(BenchmarkId::new("ea", name), &workload, |b, w| {
            let mut engine = MatchEngine::new();
            b.iter(|| {
                for cm in &w.defect_maps {
                    black_box(engine.exact_success(&w.fm, cm).0);
                }
            });
        });
        group.bench_with_input(BenchmarkId::new("hba_legacy", name), &workload, |b, w| {
            b.iter(|| {
                for cm in &w.defect_maps {
                    black_box(reference::map_hybrid(&w.fm, cm).is_success());
                }
            });
        });
        group.bench_with_input(BenchmarkId::new("ea_legacy", name), &workload, |b, w| {
            b.iter(|| {
                for cm in &w.defect_maps {
                    black_box(reference::map_exact(&w.fm, cm).is_success());
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_hba_vs_ea);
criterion_main!(benches);

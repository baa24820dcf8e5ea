//! T-block / A-3: blocking performance at paper scale — attribute
//! equivalence, the overlap blocker, and the overlap-coefficient blocker.

use criterion::{criterion_group, criterion_main, Criterion};
use em_bench::fixtures;
use em_blocking::{AttrEquivalenceBlocker, Blocker, OverlapBlocker, SetSimBlocker};
use em_core::blocking_plan::{run_blocking, BlockingPlan};

fn bench_blockers(c: &mut Criterion) {
    let fx = fixtures(true); // paper scale: 1336 × 1915
    let u = &fx.umetrics;
    let s = &fx.usda;

    let mut g = c.benchmark_group("blocking_paper_scale");
    g.sample_size(10);

    g.bench_function("attr_equivalence", |b| {
        let blocker = AttrEquivalenceBlocker::new("AwardNumber", "AwardNumber");
        b.iter(|| blocker.block(u, s).unwrap())
    });

    g.bench_function("overlap_k3", |b| {
        let blocker = OverlapBlocker::new("AwardTitle", "AwardTitle", 3);
        b.iter(|| blocker.block(u, s).unwrap())
    });

    g.bench_function("overlap_k6", |b| {
        let blocker = OverlapBlocker::new("AwardTitle", "AwardTitle", 6);
        b.iter(|| blocker.block(u, s).unwrap())
    });

    g.bench_function("overlap_coefficient_0_7", |b| {
        let blocker = SetSimBlocker::overlap_coefficient("AwardTitle", "AwardTitle", 0.7);
        b.iter(|| blocker.block(u, s).unwrap())
    });

    g.bench_function("full_plan_c1_c2_c3", |b| {
        b.iter(|| run_blocking(u, s, &BlockingPlan::default()).unwrap())
    });

    g.finish();
}

criterion_group!(benches, bench_blockers);
criterion_main!(benches);

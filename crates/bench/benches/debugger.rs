//! T-debug: the blocking debugger — ranking the most match-like pairs
//! excluded by the consolidated candidate set — at paper scale and at x4
//! (16x the surviving pairs), where the share of Jaro-Winkler calls the
//! top-k bound avoids decides the wall time.
//!
//! Set `EM_BENCH_SMOKE=1` to run one tiny scenario with minimal samples
//! (used by `scripts/check.sh` to keep the bench compiling and running).

use criterion::{criterion_group, criterion_main, Criterion};
use em_bench::fixtures_cfg;
use em_blocking::{debug_blocking, BlockingDebugger};
use em_core::blocking_plan::{run_blocking, BlockingPlan};
use em_datagen::ScenarioConfig;

fn bench_debugger(c: &mut Criterion) {
    let smoke = std::env::var("EM_BENCH_SMOKE").is_ok();
    let scales = if smoke {
        vec![("top_100_title_audit_small", ScenarioConfig::small())]
    } else {
        vec![
            ("top_100_title_audit", ScenarioConfig::paper()),
            ("top_100_title_audit_x4", ScenarioConfig::scaled(4.0)),
        ]
    };

    let mut g = c.benchmark_group("blocking_debugger");
    g.sample_size(if smoke { 2 } else { 10 });
    for (name, scenario) in scales {
        let fx = fixtures_cfg(scenario);
        let (u, s) = (&fx.umetrics, &fx.usda);
        let candidates = run_blocking(u, s, &BlockingPlan::default()).unwrap().consolidated;
        let cfg = BlockingDebugger::new("AwardTitle", "AwardTitle").with_top_k(100);
        g.bench_function(name, |b| b.iter(|| debug_blocking(&cfg, u, s, &candidates).unwrap()));
    }
    g.finish();
}

criterion_group!(benches, bench_debugger);
criterion_main!(benches);

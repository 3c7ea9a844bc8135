//! Criterion benches of the platform simulator and the whole per-frame
//! framework iteration (balance → plan → graph → simulate → characterize):
//! the framework's own cost must stay negligible next to the encoding
//! work it orchestrates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use feves_core::prelude::*;

fn bench_frame_iteration(c: &mut Criterion) {
    let mut group = c.benchmark_group("framework_frame_iteration");
    for (name, platform) in [
        ("SysNF", Platform::sys_nf()),
        ("SysNFF", Platform::sys_nff()),
        ("SysHK", Platform::sys_hk()),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &platform, |b, p| {
            let params = EncodeParams {
                search_area: SearchArea(32),
                n_ref: 2,
                ..Default::default()
            };
            let mut enc = FevesEncoder::new(p.clone(), EncoderConfig::full_hd(params)).unwrap();
            enc.run_timing(3); // warm characterization
            b.iter(|| std::hint::black_box(enc.encode_inter_timing()));
        });
    }
    group.finish();
}

fn bench_lp_solver(c: &mut Criterion) {
    use feves_lp::{Problem, Relation, Sense};
    c.bench_function("simplex_makespan_12dev", |b| {
        b.iter(|| {
            let mut lp = Problem::new(Sense::Minimize);
            let tau = lp.add_var(1.0);
            let vars: Vec<_> = (0..12).map(|_| lp.add_var(0.0)).collect();
            let all: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
            lp.add_constraint(&all, Relation::Eq, 68.0);
            for (i, &v) in vars.iter().enumerate() {
                lp.add_constraint(&[(v, 0.5 + i as f64 * 0.3), (tau, -1.0)], Relation::Le, 0.0);
            }
            std::hint::black_box(lp.solve().unwrap())
        });
    });
}

criterion_group!(benches, bench_frame_iteration, bench_lp_solver);
criterion_main!(benches);

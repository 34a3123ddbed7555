//! Latency of UniFi program synthesis over the pattern hierarchy, as a
//! function of data heterogeneity: validation, alignment, and the
//! best-first plan search that yields each source's top-k plan classes in
//! rank order (plus reachability pruning).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use clx_cluster::PatternProfiler;
use clx_column::Column;
use clx_datagen::study_case;
use clx_pattern::tokenize;
use clx_synth::{synthesize_column, SynthesisOptions};

fn bench_synthesis(c: &mut Criterion) {
    let mut group = c.benchmark_group("synthesis");
    let target = tokenize("734-422-8073");
    for &(rows, patterns) in &[(100usize, 4usize), (300, 6), (2_000, 6)] {
        let case = study_case(rows, patterns, 11);
        let column = Column::from_rows(case.data);
        let hierarchy = PatternProfiler::new().profile_column(&column);
        group.bench_with_input(
            BenchmarkId::new("phone", format!("{rows}rows_{patterns}patterns")),
            &hierarchy,
            |b, hierarchy| {
                b.iter(|| {
                    let synthesis = synthesize_column(
                        black_box(hierarchy),
                        black_box(&column),
                        black_box(&target),
                        &SynthesisOptions::default(),
                    );
                    black_box(synthesis.source_count())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_synthesis);
criterion_main!(benches);

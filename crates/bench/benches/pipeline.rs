//! Ablation benches for the design choices DESIGN.md calls out: where the
//! time goes (lex+preprocess vs parse vs check) and what interface
//! libraries save (§7).

use criterion::{criterion_group, criterion_main, Criterion};
use lclint_corpus::generator::{generate, GenConfig};
use lclint_syntax::span::SourceMap;
use lclint_syntax::{MemoryProvider, Parser};
use std::hint::black_box;

fn bench_pipeline(c: &mut Criterion) {
    let p = generate(&GenConfig::with_target_loc(5_000));
    let mut group = c.benchmark_group("pipeline_5kloc");
    group.sample_size(20);

    group.bench_function("preprocess", |b| {
        b.iter(|| {
            let mut provider = MemoryProvider::new();
            provider.insert("gen.c", p.source.clone());
            let mut sm = SourceMap::new();
            let out = lclint_syntax::pp::preprocess("gen.c", &provider, &mut sm).expect("ok");
            black_box(out.tokens.len())
        })
    });

    let mut provider = MemoryProvider::new();
    provider.insert("gen.c", p.source.clone());
    let mut sm = SourceMap::new();
    let tokens = lclint_syntax::pp::preprocess("gen.c", &provider, &mut sm).expect("ok").tokens;
    group.bench_function("parse", |b| {
        b.iter(|| {
            let tu = Parser::new(tokens.clone()).parse_translation_unit().expect("ok");
            black_box(tu.items.len())
        })
    });

    let tu = Parser::new(tokens.clone()).parse_translation_unit().expect("ok");
    let program = lclint_sema::Program::from_unit(&tu);
    group.bench_function("sema", |b| {
        b.iter(|| black_box(lclint_sema::Program::from_unit(black_box(&tu)).defs.len()))
    });
    group.bench_function("check", |b| {
        b.iter(|| {
            let d = lclint_analysis::check_program(
                black_box(&program),
                &lclint_analysis::AnalysisOptions::default(),
            );
            black_box(d.len())
        })
    });
    group.finish();

    // §7 interface libraries: module-from-source vs module-from-library.
    let mut group = c.benchmark_group("interface_library");
    group.sample_size(10);
    let client =
        "void client(void)\n{\n  m0_list l = m0_create();\n  m0_push(l, 1);\n  m0_final(l);\n}\n";
    let lib = lclint_core::library::save(&tu);
    group.bench_function("client_vs_full_source", |b| {
        let linter = lclint_core::Linter::new(lclint_core::Flags::default());
        // The client includes the module's source to see its typedefs.
        let files = vec![
            ("mod.c".to_owned(), p.source.clone()),
            ("client.c".to_owned(), format!("#include \"mod.c\"\n{client}")),
        ];
        let roots = vec!["client.c".to_owned()];
        b.iter(|| {
            let r = linter.check_files(black_box(&files), &roots).expect("ok");
            black_box(r.diagnostics.len())
        })
    });
    group.bench_function("client_vs_library", |b| {
        let mut linter = lclint_core::Linter::new(lclint_core::Flags::default());
        linter.add_library("mod.lcs", lib.clone());
        b.iter(|| {
            let r = linter.check_source("client.c", black_box(client)).expect("ok");
            black_box(r.diagnostics.len())
        })
    });
    group.finish();

    // Ablation: the paper's zero-or-one loop model vs two-iteration
    // unrolling (precision costs time; DESIGN.md E4/§2 discussion).
    let mut group = c.benchmark_group("loop_model_5kloc");
    group.sample_size(10);
    for (name, model) in [
        ("zero_or_one", lclint_analysis::LoopModel::ZeroOrOne),
        ("zero_one_or_two", lclint_analysis::LoopModel::ZeroOneOrTwo),
    ] {
        let opts = lclint_analysis::AnalysisOptions { loop_model: model, ..Default::default() };
        group.bench_function(name, |b| {
            b.iter(|| {
                let d = lclint_analysis::check_program(black_box(&program), &opts);
                black_box(d.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);

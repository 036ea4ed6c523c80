//! The per-root front end: every root is its own C translation unit, and
//! neither the order of the roots nor the worker count changes the output.

use lclint_core::{CheckResult, Flags, Linter};

fn files(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter().map(|(n, t)| ((*n).to_owned(), (*t).to_owned())).collect()
}

fn names(list: &[&str]) -> Vec<String> {
    list.iter().map(|n| (*n).to_owned()).collect()
}

fn check(files: &[(String, String)], roots: &[String], jobs: usize) -> CheckResult {
    let mut flags = Flags::default();
    flags.analysis.jobs = jobs;
    Linter::new(flags).check_files(files, roots).unwrap()
}

/// Every registered file name, in `FileId` order.
fn file_order(r: &CheckResult) -> Vec<String> {
    (0..r.source_map.len() as u32)
        .map(|i| r.source_map.name(lclint_syntax::FileId(i)).to_owned())
        .collect()
}

#[test]
fn typedef_names_do_not_leak_between_roots() {
    let fs =
        files(&[("a.c", "typedef int T;\nT tv;\n"), ("b.c", "int T;\nvoid f(void) { T = 1; }\n")]);
    for order in [["a.c", "b.c"], ["b.c", "a.c"]] {
        for jobs in [1, 2] {
            let r = check(&fs, &names(&order), jobs);
            assert!(r.is_clean(), "{order:?} --jobs {jobs}:\n{}{:?}", r.render(), r.sema_errors);
        }
    }
}

/// `n` roots with unique definitions that all include one shared header,
/// call into each other through it, and each report a leak and a null
/// dereference.
fn generated_corpus(n: usize) -> (Vec<(String, String)>, Vec<String>) {
    let mut header =
        String::from("#ifndef SHARED_H\n#define SHARED_H\ntypedef struct { int v; } shared_t;\n");
    for k in 0..n {
        header.push_str(&format!("extern void clean_{k}(void);\n"));
    }
    header.push_str("#endif\n");
    let mut fs = vec![("shared.h".to_owned(), header)];
    let mut roots = Vec::new();
    for k in 0..n {
        let name = format!("r{k}.c");
        let text = format!(
            "#include \"shared.h\"\n\
             typedef struct {{ int n; }} local_{k}_t;\n\
             void clean_{k}(void)\n{{\n  char *p = (char *) malloc(4);\n  free(p);\n}}\n\
             void leak_{k}(void)\n{{\n  char *p = (char *) malloc({k} + 1);\n  if (p != NULL) {{ *p = 'a'; }}\n}}\n\
             void deref_{k}(/*@null@*/ char *q)\n{{\n  *q = 'x';\n}}\n\
             int use_{k}(void)\n{{\n  shared_t s;\n  local_{k}_t l;\n  s.v = {k};\n  l.n = s.v;\n  clean_{next}();\n  return l.n;\n}}\n",
            next = (k + 1) % n
        );
        fs.push((name.clone(), text));
        roots.push(name);
    }
    (fs, roots)
}

/// Each rendered diagnostic on its own, sorted: an order-free view of the
/// output.
fn sorted_diagnostics(r: &CheckResult) -> Vec<String> {
    let mut v: Vec<String> = r.diagnostics.iter().map(|d| d.to_string()).collect();
    v.sort();
    v
}

#[test]
fn root_order_does_not_change_diagnostics() {
    let (fs, roots) = generated_corpus(9);
    let reference = check(&fs, &roots, 1);
    assert!(reference.sema_errors.is_empty(), "{:?}", reference.sema_errors);
    assert_eq!(reference.diagnostics.len(), 2 * roots.len(), "{}", reference.render());
    let expected = sorted_diagnostics(&reference);
    let n = roots.len();
    // Reversal, rotations and strides coprime to 9 cover a spread of
    // orders without a random source.
    let mut orders: Vec<Vec<usize>> = vec![(0..n).rev().collect()];
    for shift in [1, 4, 7] {
        orders.push((0..n).map(|i| (i + shift) % n).collect());
    }
    for stride in [2, 4, 5, 7] {
        orders.push((0..n).map(|i| (i * stride + 3) % n).collect());
    }
    for order in orders {
        let permuted: Vec<String> = order.iter().map(|&i| roots[i].clone()).collect();
        for jobs in [1, 3] {
            let r = check(&fs, &permuted, jobs);
            assert!(r.sema_errors.is_empty(), "{permuted:?}: {:?}", r.sema_errors);
            assert_eq!(sorted_diagnostics(&r), expected, "roots {permuted:?}, --jobs {jobs}");
        }
    }
}

#[test]
fn jobs_do_not_change_output_on_multi_root_input() {
    let mut fs = files(&[
        (
            "list.h",
            "#ifndef LIST_H\n#define LIST_H\n\
             typedef struct node { int v; /*@null@*/ struct node *next; } *list;\n\
             #define MK(n) ((char *) malloc(n))\n\
             extern /*@only@*/ list list_new(void);\n#endif\n",
        ),
        (
            "util.h",
            "#include \"list.h\"\n\
             void util_leak(void)\n{\n  char *u = MK(2);\n  if (u != NULL) { *u = 'u'; }\n}\n",
        ),
        (
            "a.c",
            "#include \"list.h\"\n\
             void a_leak(void)\n{\n  char *p = (char *) malloc(4);\n  if (p != NULL) { *p = 'a'; }\n}\n\
             void a_quiet(void)\n{\n  /*@i@*/ char *q = (char *) malloc(4);\n}\n",
        ),
        ("b.c", "#include \"util.h\"\nvoid b_deref(/*@null@*/ char *q)\n{\n  *q = 'b';\n}\n"),
        ("c.c", "#include \"list.h\"\n#include \"nope.h\"\nvoid c_never(void) { }\n"),
        (
            "d.c",
            "#include \"util.h\"\n\
             void d_broken(void\n{\n}\n\
             void d_leak(void)\n{\n  list l = list_new();\n  l = NULL;\n}\n",
        ),
        (
            "e.c",
            "#include \"list.h\"\n\
             void e_quiet(/*@null@*/ char *q)\n{\n  /*@i@*/ *q = 'e';\n}\n\
             void e_loud(/*@null@*/ char *q)\n{\n  *q = 'E';\n}\n",
        ),
    ]);
    // A long first root: with several workers the short roots behind it
    // finish preprocessing first and must still wait for its turn to
    // register their files, or every later file id shifts.
    fs[2].1.extend((0..3000).map(|k| format!("int a_pad_{k}(void) {{ return {k}; }}\n")));
    let roots = names(&["a.c", "b.c", "c.c", "d.c", "e.c"]);
    let seq = check(&fs, &roots, 1);
    let rendered = seq.render();
    // The corpus reaches every rebased span kind: a recovered parse error
    // and a missing include (error spans), suppressions (control
    // comments), diagnostics in roots and in a header macro (tokens).
    assert!(
        rendered.contains("c.c:2: Parse error: cannot open include file `nope.h`"),
        "{rendered}"
    );
    assert!(rendered.contains("d.c:3: Parse error"), "{rendered}");
    assert!(rendered.contains("list.h:4: Fresh storage u"), "{rendered}");
    assert!(rendered.contains("a.c:4:"), "{rendered}");
    assert!(rendered.contains("e.c:8:"), "{rendered}");
    assert!(seq.suppressed >= 2, "{rendered}");
    assert!(!seq.sema_errors.is_empty(), "util_leak is defined by two roots: {rendered}");
    for jobs in [2, 4, 0] {
        let par = check(&fs, &roots, jobs);
        assert_eq!(par.render(), rendered, "--jobs {jobs}");
        assert_eq!(par.sema_errors, seq.sema_errors, "--jobs {jobs}");
        assert_eq!(par.suppressed, seq.suppressed, "--jobs {jobs}");
        assert_eq!(file_order(&par), file_order(&seq), "--jobs {jobs}");
    }
}

//! The checking driver: preprocess + parse every source file, build one
//! program from the annotated standard library, loaded interface libraries
//! and all translation units, run the memory checks, then apply flag and
//! suppression-comment filtering.

use crate::annotate::{apply_annotations, PlacedAnnotation};
use crate::flags::Flags;
use crate::incremental::IncrementalSession;
use crate::render::RenderedDiagnostic;
use crate::stdlib::STDLIB_SOURCE;
use crate::suppress::SuppressionSet;
use lclint_analysis::cache::{check_program_cached, options_digest, CacheStats};
use lclint_analysis::{check_program, effective_jobs, infer_annotations, DiagKind, Diagnostic};
use lclint_sema::Program;
use lclint_syntax::fx::FxHashMap;
use lclint_syntax::lexer::ControlComment;
use lclint_syntax::parser::PARSE_STACK;
use lclint_syntax::pp::{preprocess, FileProvider, MemoryProvider};
use lclint_syntax::span::{FileId, SourceMap, Span};
use lclint_syntax::stable_hash::StableHasher;
use lclint_syntax::{Parser, Result, Symbol, SyntaxError, TranslationUnit};
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock, PoisonError};

/// The preprocessed+parsed annotated standard library, computed once per
/// process. `source_map` holds exactly the stdlib's file entries; a check
/// run clones it as its starting map so spans and file ids come out
/// identical to an uncached run.
#[derive(Debug)]
struct StdlibCache {
    unit: TranslationUnit,
    typedefs: Vec<Symbol>,
    source_map: SourceMap,
}

static STDLIB_CACHE: OnceLock<std::result::Result<StdlibCache, SyntaxError>> = OnceLock::new();
static STDLIB_CACHE_HITS: AtomicUsize = AtomicUsize::new(0);

/// How many check runs have reused the cached stdlib parse instead of
/// re-lexing and re-parsing it (observability for benchmarks and tests).
pub fn stdlib_cache_hits() -> usize {
    STDLIB_CACHE_HITS.load(Ordering::Relaxed)
}

/// The process-wide stdlib parse, or the error that prevented it. The error
/// is kept (not discarded) so every run can surface it as a diagnostic
/// instead of silently checking without the standard library.
fn cached_stdlib() -> std::result::Result<&'static StdlibCache, &'static SyntaxError> {
    let mut initializing = false;
    let slot = STDLIB_CACHE.get_or_init(|| {
        initializing = true;
        let mut sm = SourceMap::new();
        let mut p = MemoryProvider::new();
        p.insert("<stdlib>", STDLIB_SOURCE);
        let out = preprocess("<stdlib>", &p, &mut sm)?;
        let unit = Parser::new(out.tokens).parse_translation_unit()?;
        let typedefs = collect_typedef_names(&unit);
        Ok(StdlibCache { unit, typedefs, source_map: sm })
    });
    if !initializing && slot.is_ok() {
        STDLIB_CACHE_HITS.fetch_add(1, Ordering::Relaxed);
    }
    slot.as_ref()
}

/// Substrate counters: the flat-arena footprint of every parsed unit and
/// the process-wide interner size. Reported by `--stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubstrateStats {
    /// Aggregated node-arena sizes across the run's units (stdlib included).
    pub arena: lclint_syntax::ast::ArenaStats,
    /// Interned symbols alive in the process after the run.
    pub symbols: usize,
}

/// Peak resident set size of this process in bytes (`VmHWM`), when the
/// platform exposes it. `None` elsewhere — callers print it best-effort.
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
                return Some(kb * 1024);
            }
        }
        None
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Everything one build of the program produces: the resolved tables plus
/// the per-unit syntax needed for rendering and annotation write-back.
///
/// The per-root records (`root_file_plans`, `root_controls`,
/// `root_syntax_diags`, `base_typedefs`, `def_counts`) exist for the
/// incremental [`Session`](crate::session::Session): they let a warm
/// session re-derive exactly one root's contribution and splice it into
/// the built program instead of rebuilding everything.
pub(crate) struct BuiltProgram {
    pub(crate) program: Program,
    pub(crate) sm: SourceMap,
    pub(crate) controls: Vec<ControlComment>,
    /// Every parsed unit in load order; `root_start` indexes the first unit
    /// belonging to `roots` (earlier ones are interface libraries). A root
    /// that failed to lex or preprocess contributes an *empty* unit so the
    /// `roots` indices stay aligned.
    pub(crate) units: Vec<TranslationUnit>,
    pub(crate) root_start: usize,
    /// Wall-clock milliseconds preprocessing and parsing every unit.
    pub(crate) parse_ms: f64,
    /// Wall-clock milliseconds resolving the program (name/type binding).
    pub(crate) sema_ms: f64,
    /// Arena/interner counters for this build.
    pub(crate) substrate: SubstrateStats,
    /// The stdlib's share of `substrate.arena` (sessions recompute the unit
    /// share after patches, but never re-parse the stdlib).
    pub(crate) stdlib_arena: lclint_syntax::ast::ArenaStats,
    /// Diagnostics produced while building: recovered parse errors in root
    /// files and a stdlib-unavailable notice. Merged into the check output
    /// so broken input degrades to messages instead of aborting the run.
    pub(crate) syntax_diags: Vec<Diagnostic>,
    /// Source-map file ids registered while preprocessing each root, in
    /// registration order (the replay plan for re-preprocessing that root).
    pub(crate) root_file_plans: Vec<Vec<lclint_syntax::FileId>>,
    /// Control comments contributed by each root.
    pub(crate) root_controls: Vec<Vec<ControlComment>>,
    /// Build diagnostics that precede every root's (currently only the
    /// stdlib-unavailable notice).
    pub(crate) pre_root_diags: Vec<Diagnostic>,
    /// Recovered parse / preprocess diagnostics per root.
    pub(crate) root_syntax_diags: Vec<Vec<Diagnostic>>,
    /// Typedef names every root's parse starts from: the stdlib's and the
    /// interface libraries'.
    pub(crate) base_typedefs: Vec<Symbol>,
    /// `program.defs.len()` marks: `def_counts[0]` after the stdlib,
    /// `def_counts[k + 1]` after `units[k]` — so unit `k` contributed the
    /// definitions `def_counts[k]..def_counts[k + 1]`.
    pub(crate) def_counts: Vec<usize>,
}

/// The result of one inference run ([`Linter::infer_files`]).
#[derive(Debug, Clone, Default)]
pub struct InferOutcome {
    /// Every recovered annotation with its resolved source location.
    pub placed: Vec<PlacedAnnotation>,
    /// Whole-program fixpoint sweeps executed.
    pub rounds: usize,
    /// Strongly connected components in the call graph.
    pub sccs: usize,
    /// Unified-diff-style report over every changed declaration.
    pub diff: String,
    /// `(root file name, annotated source)` for every checked root, rendered
    /// through the pretty-printer with the inferred annotations attached.
    pub annotated: Vec<(String, String)>,
    /// Semantic (declaration-level) problems, rendered.
    pub sema_errors: Vec<String>,
}

/// The result of one check run.
#[derive(Debug, Clone)]
pub struct CheckResult {
    /// Diagnostics that survived filtering, in source order.
    pub diagnostics: Vec<RenderedDiagnostic>,
    /// Number of messages removed by suppression comments.
    pub suppressed: usize,
    /// Semantic (declaration-level) problems, rendered.
    pub sema_errors: Vec<String>,
    /// The source map of the run (for custom rendering).
    pub source_map: SourceMap,
    /// Incremental-cache counters, present when the run went through an
    /// [`IncrementalSession`].
    pub cache_stats: Option<CacheStats>,
    /// Wall-clock milliseconds spent in the checking phase alone (dataflow
    /// analysis and cache probing; excludes preprocessing, parsing, and
    /// program construction). This is the phase the incremental cache
    /// accelerates, so benchmarks report it alongside total time.
    pub check_ms: f64,
    /// Wall-clock milliseconds spent preprocessing and parsing.
    pub parse_ms: f64,
    /// Wall-clock milliseconds spent building the resolved program.
    pub sema_ms: f64,
    /// Flat-arena and interner counters for the run.
    pub substrate: SubstrateStats,
}

impl CheckResult {
    /// Renders the kept diagnostics in LCLint's output format.
    pub fn render(&self) -> String {
        crate::render::render_all(&self.diagnostics)
    }

    /// True when no anomalies were reported.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty() && self.sema_errors.is_empty()
    }

    /// Message counts by class flag name (for summaries and harnesses).
    pub fn counts_by_kind(&self) -> std::collections::BTreeMap<String, usize> {
        let mut m = std::collections::BTreeMap::new();
        for d in &self.diagnostics {
            *m.entry(d.kind.clone()).or_insert(0usize) += 1;
        }
        m
    }

    /// Message counts by CWE id (for `--stats` and the daemon's `stats`
    /// response). Diagnostics whose kind has no CWE mapping (syntax,
    /// internal, budget, ...) are not counted.
    pub fn counts_by_cwe(&self) -> std::collections::BTreeMap<u32, usize> {
        let mut m = std::collections::BTreeMap::new();
        for d in &self.diagnostics {
            if let Some(id) = d.cwe {
                *m.entry(id).or_insert(0usize) += 1;
            }
        }
        m
    }
}

/// The checker: LCLint's top-level interface.
///
/// # Examples
///
/// ```
/// use lclint_core::{Flags, Linter};
///
/// let linter = Linter::new(Flags::default());
/// let result = linter
///     .check_source(
///         "sample.c",
///         "extern char *gname;\n\
///          void setName(/*@null@*/ char *pname)\n{\n  gname = pname;\n}\n",
///     )
///     .unwrap();
/// assert_eq!(result.diagnostics.len(), 1);
/// assert!(result
///     .render()
///     .contains("Function returns with non-null global gname referencing null storage"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Linter {
    /// The flag state for this run.
    pub flags: Flags,
    /// Extra interface libraries (name, text) made available to every run.
    libraries: Vec<(String, String)>,
}

impl Linter {
    /// Creates a linter with the given flags.
    pub fn new(flags: Flags) -> Self {
        Linter { flags, libraries: Vec::new() }
    }

    /// Adds an interface library (see [`crate::library`]).
    pub fn add_library(&mut self, name: impl Into<String>, text: impl Into<String>) -> &mut Self {
        self.libraries.push((name.into(), text.into()));
        self
    }

    /// Checks a single in-memory source file.
    ///
    /// # Errors
    ///
    /// Returns lexing/preprocessing/parsing errors.
    pub fn check_source(&self, name: &str, text: &str) -> Result<CheckResult> {
        self.check_files(&[(name.to_owned(), text.to_owned())], &[(name.to_owned())])
    }

    /// Checks a set of files. `files` holds every file (sources and
    /// headers); `roots` names the translation units to check (headers are
    /// reached through `#include`).
    ///
    /// # Errors
    ///
    /// Returns the first lexing/preprocessing/parsing error.
    pub fn check_files(&self, files: &[(String, String)], roots: &[String]) -> Result<CheckResult> {
        self.check_files_with(files, roots, None)
    }

    /// Digest of everything outside the parsed program that feeds checking:
    /// whether the annotated stdlib is loaded, and the text of every added
    /// interface library. Part of every cache fingerprint.
    pub(crate) fn library_digest(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_bool(self.flags.use_stdlib);
        h.write_u64(self.libraries.len() as u64);
        for (name, text) in &self.libraries {
            h.write_str(name);
            h.write_str(text);
        }
        h.finish()
    }

    /// Digest of everything outside the checked source text that can change
    /// this linter's diagnostics: the analysis options and the loaded
    /// libraries. Two linters with equal digests produce identical results
    /// for identical input text — the key property content-addressed result
    /// sharing (fleet workers, `--cas`) relies on.
    pub fn check_digest(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_u64(options_digest(&self.flags.analysis));
        h.write_u64(self.library_digest());
        h.finish()
    }

    /// Preprocesses and parses everything (stdlib, libraries, roots) and
    /// builds the resolved program. Shared by checking, inference, and the
    /// incremental session. `jobs` (0 = all cores) is the worker count for
    /// the roots' front end, as it is for checking.
    pub(crate) fn build_program(
        &self,
        files: &[(String, String)],
        roots: &[String],
        jobs: usize,
    ) -> Result<BuiltProgram> {
        let provider: FxHashMap<&str, &str> =
            files.iter().map(|(name, text)| (name.as_str(), text.as_str())).collect();
        let mut sm = SourceMap::new();
        let mut units: Vec<TranslationUnit> = Vec::new();
        let mut pre_root_diags: Vec<Diagnostic> = Vec::new();
        // Typedef names accumulate across the stdlib and the interface
        // libraries (which carry type definitions like LCLint's .lcs files),
        // and every root starts from that set: a root is its own C
        // translation unit and sees no other root's typedefs.
        let mut typedefs: Vec<Symbol> = Vec::new();
        let parse_start = std::time::Instant::now();

        // The standard library is itself just an annotated source file. Its
        // parse never changes, so every run after the first reuses the
        // process-wide cache; the run's SourceMap starts from the cached
        // prefix so spans are identical either way.
        let mut stdlib_unit: Option<&'static TranslationUnit> = None;
        if self.flags.use_stdlib {
            match cached_stdlib() {
                Ok(cache) => {
                    sm = cache.source_map.clone();
                    typedefs.extend(cache.typedefs.iter().copied());
                    stdlib_unit = Some(&cache.unit);
                }
                Err(e) => {
                    // The stdlib failed to preprocess or parse (should not
                    // happen): say so and check without it, rather than
                    // silently dropping the standard interfaces or killing
                    // the whole run.
                    pre_root_diags.push(Diagnostic::new(
                        DiagKind::SyntaxError,
                        format!(
                            "Annotated standard library unavailable ({e}); \
                             checking continues without it"
                        ),
                        Span::synthetic(),
                    ));
                }
            }
        }
        // Interface libraries are trusted configuration, not checked input:
        // a broken library stays a hard error.
        for (name, text) in &self.libraries {
            let out = preprocess(name, &HashMap::from([(name.as_str(), text.as_str())]), &mut sm)?;
            let mut parser = Parser::new(out.tokens);
            for t in &typedefs {
                parser.add_typedef(*t);
            }
            let tu = parser.parse_translation_unit()?;
            typedefs.extend(collect_typedef_names(&tu));
            units.push(tu);
        }
        let root_start = units.len();
        let mut root_file_plans = Vec::with_capacity(roots.len());
        let mut root_controls = Vec::with_capacity(roots.len());
        let mut root_syntax_diags = Vec::with_capacity(roots.len());
        for front in front_end_roots(&provider, roots, &typedefs, &mut sm, jobs) {
            units.push(front.unit);
            root_controls.push(front.controls);
            root_syntax_diags.push(front.diags);
            root_file_plans.push(front.files);
        }
        let parse_ms = parse_start.elapsed().as_secs_f64() * 1000.0;

        let sema_start = std::time::Instant::now();
        let mut program = Program::new();
        let mut def_counts: Vec<usize> = Vec::with_capacity(units.len() + 1);
        if let Some(u) = stdlib_unit {
            program.extend_with(u);
        }
        def_counts.push(program.defs.len());
        for u in &units {
            program.extend_with(u);
            def_counts.push(program.defs.len());
        }
        let sema_ms = sema_start.elapsed().as_secs_f64() * 1000.0;

        let mut substrate = SubstrateStats::default();
        let mut stdlib_arena = lclint_syntax::ast::ArenaStats::default();
        if let Some(u) = stdlib_unit {
            stdlib_arena.absorb(&u.arena.stats());
            substrate.arena.absorb(&u.arena.stats());
        }
        for u in &units {
            substrate.arena.absorb(&u.arena.stats());
        }
        substrate.symbols = lclint_syntax::intern::symbol_count();
        let controls = root_controls.iter().flatten().cloned().collect();
        let syntax_diags =
            pre_root_diags.iter().chain(root_syntax_diags.iter().flatten()).cloned().collect();
        Ok(BuiltProgram {
            program,
            sm,
            controls,
            units,
            root_start,
            syntax_diags,
            parse_ms,
            sema_ms,
            substrate,
            stdlib_arena,
            root_file_plans,
            root_controls,
            pre_root_diags,
            root_syntax_diags,
            base_typedefs: typedefs,
            def_counts,
        })
    }

    /// Like [`Linter::check_files`], but routes checking through an
    /// incremental session when one is given: previously cached functions
    /// whose fingerprints still match are not re-checked, and
    /// [`CheckResult::cache_stats`] reports hits/misses/invalidations.
    /// Output is byte-identical to the uncached path for any `jobs` value.
    ///
    /// # Errors
    ///
    /// Returns the first lexing/preprocessing/parsing error.
    pub fn check_files_with(
        &self,
        files: &[(String, String)],
        roots: &[String],
        incremental: Option<&mut IncrementalSession>,
    ) -> Result<CheckResult> {
        let BuiltProgram {
            program, sm, controls, syntax_diags, parse_ms, sema_ms, substrate, ..
        } = self.build_program(files, roots, self.flags.analysis.jobs)?;
        let sema_errors: Vec<String> = program
            .errors
            .iter()
            .map(|e| {
                let loc = sm.loc(e.span);
                format!("{loc}: {}", e.message)
            })
            .collect();

        // The cache sits *below* flag and suppression filtering: entries
        // hold the full per-function diagnostics, so toggling message
        // classes or suppression comments never invalidates anything.
        let check_start = std::time::Instant::now();
        let (mut diags, cache_stats) = match incremental {
            None => (check_program(&program, &self.flags.analysis), None),
            Some(session) => {
                let od = options_digest(&self.flags.analysis);
                let lib = self.library_digest();
                session.prepare(od, lib);
                let diags =
                    check_program_cached(&program, &self.flags.analysis, lib, &mut session.cache);
                // Best-effort: a failed save costs the next run its warm
                // start, never this run its result.
                let _ = session.persist(od, lib);
                (diags, Some(session.take_stats()))
            }
        };
        let check_ms = check_start.elapsed().as_secs_f64() * 1000.0;
        diags.extend(syntax_diags);
        diags.retain(|d| self.flags.enabled(d.kind));
        diags.sort_by_key(|d| (d.span.file, d.span.start));

        let (diags, suppressed) = if self.flags.suppression_comments {
            let set = SuppressionSet::build(&controls, &sm);
            set.filter(diags, &sm, |d| d.span)
        } else {
            (diags, 0)
        };

        let rendered = diags.iter().map(|d| RenderedDiagnostic::resolve(d, &sm)).collect();
        Ok(CheckResult {
            diagnostics: rendered,
            suppressed,
            sema_errors,
            source_map: sm,
            cache_stats,
            check_ms,
            parse_ms,
            sema_ms,
            substrate,
        })
    }
}

impl Linter {
    /// Runs whole-program annotation inference over a single in-memory
    /// source file. See [`Linter::infer_files`].
    ///
    /// # Errors
    ///
    /// Returns lexing/preprocessing/parsing errors.
    pub fn infer_source(&self, name: &str, text: &str) -> Result<InferOutcome> {
        self.infer_files(&[(name.to_owned(), text.to_owned())], &[name.to_owned()])
    }

    /// Recovers `null` / `only` / `out` / `notnull` annotations from the
    /// checked program (call-graph SCC fixpoint over the checker's transfer
    /// functions in summary mode) and maps them back onto the source.
    ///
    /// The run is read-only: it never opens or writes an incremental
    /// session, so a cache directory used by plain checking is untouched.
    ///
    /// # Errors
    ///
    /// Returns the first lexing/preprocessing/parsing error.
    pub fn infer_files(
        &self,
        files: &[(String, String)],
        roots: &[String],
    ) -> Result<InferOutcome> {
        let built = self.build_program(files, roots, self.flags.analysis.jobs)?;
        let sema_errors: Vec<String> = built
            .program
            .errors
            .iter()
            .map(|e| {
                let loc = built.sm.loc(e.span);
                format!("{loc}: {}", e.message)
            })
            .collect();
        let result = infer_annotations(&built.program, &self.flags.analysis);
        let root_units = &built.units[built.root_start..];
        let applied = apply_annotations(root_units, &result.annots, &built.sm);
        let annotated = roots
            .iter()
            .zip(&applied.units)
            .map(|(r, u)| (r.clone(), lclint_syntax::pretty_print(u)))
            .collect();
        Ok(InferOutcome {
            placed: applied.placed,
            rounds: result.rounds,
            sccs: result.sccs,
            diff: applied.diff,
            annotated,
            sema_errors,
        })
    }
}

/// One root's front-end output, with every file id in the run's map.
struct RootFront {
    unit: TranslationUnit,
    controls: Vec<ControlComment>,
    /// Recovered parse errors, or the lex/preprocess error that emptied
    /// the unit.
    diags: Vec<Diagnostic>,
    /// The files the root registered, in registration order.
    files: Vec<FileId>,
}

/// Preprocesses and parses one root as its own translation unit.
///
/// The root is preprocessed into a root-local source map, which `register`
/// places into the run's map, returning the base its ids move up by. Every
/// span produced so far (tokens, control comments, a preprocess error) is
/// rebased onto that base before parsing, so the unit, its diagnostics and
/// its file plan come out exactly as if the root had registered its files
/// into the run's map directly. The parser knows `typedefs` plus whatever
/// the root itself declares. Runs the parse on the calling thread, which
/// must have a [`PARSE_STACK`]-sized stack.
fn front_end_root(
    root: &str,
    provider: &dyn FileProvider,
    typedefs: &[Symbol],
    register: impl FnOnce(SourceMap) -> u32,
) -> RootFront {
    let mut local = SourceMap::new();
    let pp = preprocess(root, provider, &mut local);
    let count = local.len() as u32;
    let base = register(local);
    let files = (base..base + count).map(FileId).collect();
    let syntax_error = |e: SyntaxError| {
        Diagnostic::new(DiagKind::SyntaxError, format!("Parse error: {}", e.message), e.span)
    };
    match pp {
        Ok(mut out) => {
            for t in &mut out.tokens {
                t.span = t.span.rebased(base);
            }
            for c in &mut out.controls {
                c.span = c.span.rebased(base);
            }
            let mut parser = Parser::new(out.tokens);
            for t in typedefs {
                parser.add_typedef(*t);
            }
            let (unit, errors) = parser.parse_translation_unit_recovering_inline();
            let diags = errors.into_iter().map(syntax_error).collect();
            RootFront { unit, controls: out.controls, diags, files }
        }
        Err(mut e) => {
            // Lexing or preprocessing failed — nothing survives from this
            // root. Report it and keep the batch alive with an empty unit
            // so the other roots are still checked.
            e.span = e.span.rebased(base);
            RootFront {
                unit: TranslationUnit::default(),
                controls: Vec::new(),
                diags: vec![syntax_error(e)],
                files,
            }
        }
    }
}

/// Runs [`front_end_root`] for every root on up to `jobs` workers (0 = all
/// cores) and returns the results in root order.
///
/// Workers claim roots from a counter and preprocess and parse them
/// concurrently; only the registration into `sm` is serialized, in strict
/// root order, so every file id equals the one a one-root-at-a-time run
/// assigns. One job is one worker: a single [`PARSE_STACK`] thread parses
/// every root.
fn front_end_roots(
    provider: &(dyn FileProvider + Sync),
    roots: &[String],
    typedefs: &[Symbol],
    sm: &mut SourceMap,
    jobs: usize,
) -> Vec<RootFront> {
    // No roots, no workers.
    let jobs = effective_jobs(jobs, roots.len()).min(roots.len());
    // `(next root to register, the run's map)`: root `i` waits until
    // `next == i`, appends its map and wakes the others.
    let turn = Mutex::new((0usize, std::mem::take(sm)));
    let turn_changed = Condvar::new();
    let register = |i: usize, local: SourceMap| -> u32 {
        let mut t = turn.lock().unwrap_or_else(PoisonError::into_inner);
        while t.0 != i {
            t = turn_changed.wait(t).unwrap_or_else(PoisonError::into_inner);
        }
        let base = t.1.append(local);
        t.0 += 1;
        turn_changed.notify_all();
        base
    };
    let next = AtomicUsize::new(0);
    type Outcome = std::thread::Result<RootFront>;
    let per_worker: Vec<Vec<(usize, Outcome)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                let (next, register) = (&next, &register);
                std::thread::Builder::new()
                    .name("lclint-front".to_owned())
                    .stack_size(PARSE_STACK)
                    .spawn_scoped(s, move || {
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(root) = roots.get(i) else { break };
                            // A panic must not strand the roots after this
                            // one at their registration turn: catch it,
                            // take the turn if it was not taken, and
                            // re-raise it after the join.
                            let mut registered = false;
                            let front = std::panic::catch_unwind(AssertUnwindSafe(|| {
                                let register = |local| {
                                    registered = true;
                                    register(i, local)
                                };
                                front_end_root(root, provider, typedefs, register)
                            }));
                            if front.is_err() && !registered {
                                register(i, SourceMap::new());
                            }
                            out.push((i, front));
                        }
                        out
                    })
                    .expect("spawn front-end worker")
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("front-end worker panicked")).collect()
    });
    *sm = turn.into_inner().unwrap_or_else(PoisonError::into_inner).1;
    let mut slots: Vec<Option<Outcome>> = roots.iter().map(|_| None).collect();
    for (i, front) in per_worker.into_iter().flatten() {
        slots[i] = Some(front);
    }
    slots
        .into_iter()
        .map(|front| match front.expect("every root claimed") {
            Ok(front) => front,
            // The first panicking root's payload, as a one-at-a-time run
            // would have raised it.
            Err(payload) => std::panic::resume_unwind(payload),
        })
        .collect()
}

/// Names introduced by `typedef` declarations in a unit.
fn collect_typedef_names(tu: &TranslationUnit) -> Vec<Symbol> {
    use lclint_syntax::ast::{Item, StorageClass};
    let mut names = Vec::new();
    for item in &tu.items {
        if let Item::Decl(d) = item {
            let d = tu.arena.decl(*d);
            if d.specs.storage == Some(StorageClass::Typedef) {
                for id in &d.declarators {
                    if let Some(n) = id.declarator.name {
                        names.push(n);
                    }
                }
            }
        }
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serves `int <root>_v;` for every root and panics when asked for one
    /// of the `bad` names.
    struct PanicsOn(Vec<String>);

    impl FileProvider for PanicsOn {
        fn read_file(&self, name: &str) -> Option<String> {
            if self.0.iter().any(|bad| bad == name) {
                panic!("reading {name}");
            }
            Some(format!("int {}_v;\n", name.trim_end_matches(".c")))
        }
    }

    #[test]
    fn a_panicking_root_reraises_its_payload_instead_of_stranding_later_roots() {
        let roots: Vec<String> = (0..4).map(|i| format!("r{i}.c")).collect();
        // The bad roots, then the one whose payload must surface: the
        // first in root order, as a one-at-a-time run would raise it.
        let cases: [(&[usize], usize); 4] = [(&[0], 0), (&[1], 1), (&[3], 3), (&[2, 0], 0)];
        for jobs in [1, 2, 3] {
            for (bad, first) in cases {
                let provider = PanicsOn(bad.iter().map(|&i| roots[i].clone()).collect());
                let roots = roots.clone();
                let (tx, rx) = std::sync::mpsc::channel();
                // A watchdog: the call runs on its own thread, so a worker
                // stranded at its registration turn shows up as a timeout
                // instead of a hung test.
                std::thread::spawn(move || {
                    let mut sm = SourceMap::new();
                    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        front_end_roots(&provider, &roots, &[], &mut sm, jobs)
                    }));
                    let payload = outcome.err().map(|p| {
                        p.downcast_ref::<String>()
                            .cloned()
                            .unwrap_or_else(|| "<not a String>".into())
                    });
                    let _ = tx.send(payload);
                });
                let payload = rx
                    .recv_timeout(std::time::Duration::from_secs(60))
                    .unwrap_or_else(|_| panic!("jobs {jobs}, bad {bad:?}: front end hung"));
                assert_eq!(
                    payload.as_deref(),
                    Some(format!("reading r{first}.c").as_str()),
                    "jobs {jobs}, bad {bad:?}"
                );
            }
        }
    }

    #[test]
    fn infer_source_recovers_only_return_and_renders_diff() {
        let linter = Linter::new(Flags::default());
        let out = linter
            .infer_source(
                "mk.c",
                "char *mk(void)\n\
                 {\n\
                   char *p = (char *) malloc(8);\n\
                   return p;\n\
                 }\n",
            )
            .unwrap();
        assert!(out.sema_errors.is_empty(), "{:?}", out.sema_errors);
        let only = out
            .placed
            .iter()
            .find(|p| p.target == "mk: return" && p.annot == "only")
            .expect("only return inferred");
        assert_eq!(only.loc.as_deref(), Some("mk.c:1"));
        assert!(out.diff.contains("@@ mk.c:1 @@"), "{}", out.diff);
        let (name, text) = &out.annotated[0];
        assert_eq!(name, "mk.c");
        assert!(text.contains("/*@only@*/"), "{text}");
    }

    #[test]
    fn infer_files_is_read_only_for_the_inputs() {
        let linter = Linter::new(Flags::default());
        let files = vec![("id.c".to_owned(), "char *id(char *p) { return p; }\n".to_owned())];
        let before = files.clone();
        let _ = linter.infer_files(&files, &["id.c".to_owned()]).unwrap();
        assert_eq!(files, before);
    }

    #[test]
    fn figure2_end_to_end_message() {
        let linter = Linter::new(Flags::default());
        let result = linter
            .check_source(
                "sample.c",
                "extern char *gname;\n\
                 \n\
                 void setName(/*@null@*/ char *pname)\n\
                 {\n\
                   gname = pname;\n\
                 }\n",
            )
            .unwrap();
        let text = result.render();
        assert_eq!(
            text,
            "sample.c:6: Function returns with non-null global gname referencing null storage [CWE-476]\n   sample.c:5: Storage gname may become null\n"
        );
    }

    #[test]
    fn figure4_end_to_end_messages() {
        let linter = Linter::new(Flags::default());
        let result = linter
            .check_source(
                "sample.c",
                "extern /*@only@*/ char *gname;\n\
                 \n\
                 void setName(/*@temp@*/ char *pname)\n\
                 {\n\
                   gname = pname;\n\
                 }\n",
            )
            .unwrap();
        let text = result.render();
        assert!(text.contains("sample.c:5: Only storage gname not released before assignment"));
        assert!(text.contains("sample.c:1: Storage gname becomes only"));
        assert!(text.contains("sample.c:5: Temp storage pname assigned to only gname"));
        assert!(text.contains("sample.c:3: Storage pname becomes temp"));
    }

    #[test]
    fn stdlib_available_without_declarations() {
        let linter = Linter::new(Flags::default());
        let result = linter
            .check_source("m.c", "void f(void) { char *p = (char *) malloc(10); free(p); }\n")
            .unwrap();
        assert!(result.is_clean(), "{}", result.render());
    }

    #[test]
    fn suppression_comment_consumes_message() {
        let linter = Linter::new(Flags::default());
        let result = linter
            .check_source("m.c", "void f(void) { /*@i@*/ char *p = (char *) malloc(10); }\n")
            .unwrap();
        assert_eq!(result.suppressed, 1);
        assert!(result.diagnostics.is_empty(), "{}", result.render());
    }

    #[test]
    fn flags_disable_message_classes() {
        let flags = Flags::parse("-mustfree").unwrap();
        let linter = Linter::new(flags);
        let result = linter
            .check_source("m.c", "void f(void) { char *p = (char *) malloc(10); }\n")
            .unwrap();
        assert!(result.is_clean(), "{}", result.render());
    }

    #[test]
    fn multi_file_check_with_header() {
        let files = vec![
            (
                "erc.h".to_owned(),
                "#ifndef ERC_H\n#define ERC_H\n\
                 typedef struct { /*@null@*/ int *vals; int size; } *erc;\n\
                 extern /*@only@*/ erc erc_create(void);\n\
                 #endif\n"
                    .to_owned(),
            ),
            (
                "erc.c".to_owned(),
                "#include \"erc.h\"\n\
                 /*@only@*/ erc erc_create(void)\n\
                 {\n\
                   erc c = (erc) malloc(sizeof(*c));\n\
                   if (c == NULL) { exit(1); }\n\
                   c->vals = NULL;\n\
                   c->size = 0;\n\
                   return c;\n\
                 }\n"
                .to_owned(),
            ),
        ];
        let linter = Linter::new(Flags::default());
        let result = linter.check_files(&files, &["erc.c".to_owned()]).unwrap();
        assert!(result.is_clean(), "{}", result.render());
    }

    #[test]
    fn stdlib_cache_reused_across_runs() {
        let linter = Linter::new(Flags::default());
        let src = "void f(void) { char *p = (char *) malloc(10); free(p); }\n";
        let before = stdlib_cache_hits();
        let first = linter.check_source("m.c", src).unwrap();
        let second = linter.check_source("m.c", src).unwrap();
        // At most the first call pays for the parse; the second must hit.
        assert!(stdlib_cache_hits() > before, "expected at least one stdlib cache hit");
        // The cached prefix yields identical spans and output.
        assert_eq!(first.render(), second.render());
        assert!(first.is_clean(), "{}", first.render());
    }

    #[test]
    fn jobs_setting_does_not_change_output() {
        let src = "extern char *gname;\n\
                   void setName(/*@null@*/ char *pname)\n{\n  gname = pname;\n}\n\
                   void leak(void)\n{\n  char *p = (char *) malloc(4);\n  if (p != 0) { *p = 'a'; }\n}\n";
        let mut seq_flags = Flags::default();
        seq_flags.analysis.jobs = 1;
        let mut par_flags = Flags::default();
        par_flags.analysis.jobs = 4;
        let seq = Linter::new(seq_flags).check_source("j.c", src).unwrap();
        let par = Linter::new(par_flags).check_source("j.c", src).unwrap();
        assert_eq!(seq.render(), par.render());
        assert!(!seq.diagnostics.is_empty());
    }

    #[test]
    fn libraries_supply_interfaces() {
        let mut linter = Linter::new(Flags::default());
        linter.add_library("list.lcs", "extern /*@only@*/ char *list_pop(void);\n");
        let result = linter
            .check_source("m.c", "void f(void) { char *p = list_pop(); free(p); }\n")
            .unwrap();
        assert!(result.is_clean(), "{}", result.render());
    }
}

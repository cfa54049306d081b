//! Per-rule fixture tests: every bad fixture trips exactly its own rule,
//! the clean fixtures trip nothing, and trigger text hidden in strings
//! or comments stays invisible. The fixtures of the rules retired to the
//! toolchain (R1, R3, R4, R7, R8, R11) must trip the clippy lint, rustc
//! error or lock check that replaced each one.

mod support;

use std::sync::OnceLock;

use planaria_lint::rules::{lint_source, Config, FileMeta, Violation};
use support::{clippy, lock_is_local, repo_file, Findings};

/// The inner attribute that guards the two parsing modules (retired R11).
const TRUNCATION_GUARD: &str = "#![deny(clippy::cast_possible_truncation)]";

/// The retired rules' fixtures in one scratch crate under a hot crate's
/// `clippy.toml`. `lib.rs` is the R4 fixture, a crate root with no lint
/// attributes of its own; `other.rs` is the same fixture as a submodule;
/// `io.rs` is the R11 fixture behind the parsing modules' guard.
fn hot_crate() -> &'static Findings {
    static RUN: OnceLock<Findings> = OnceLock::new();
    RUN.get_or_init(|| {
        let root = format!(
            "{}\npub mod io;\npub mod other;\npub mod r1;\npub mod r3;\npub mod r7;\n",
            include_str!("fixtures/bad_r4.rs")
        );
        let io = format!("{TRUNCATION_GUARD}\n{}", include_str!("fixtures/bad_r11.rs"));
        clippy(
            "retired-rules-hot",
            "crates/core/clippy.toml",
            "",
            &[
                ("lib.rs", &root),
                ("io.rs", &io),
                ("other.rs", include_str!("fixtures/bad_r4.rs")),
                ("r1.rs", include_str!("fixtures/bad_r1.rs")),
                ("r3.rs", include_str!("fixtures/bad_r3.rs")),
                ("r7.rs", include_str!("fixtures/bad_r7.rs")),
            ],
        )
    })
}

/// The R1 and R11 fixtures, unguarded, under the workspace `clippy.toml`
/// that every crate outside the hot set reads.
fn cold_crate() -> &'static Findings {
    static RUN: OnceLock<Findings> = OnceLock::new();
    RUN.get_or_init(|| {
        clippy(
            "retired-rules-cold",
            "clippy.toml",
            "",
            &[
                ("lib.rs", "//! Not a hot crate.\n\npub mod r1;\npub mod r11;\n"),
                ("r1.rs", include_str!("fixtures/bad_r1.rs")),
                ("r11.rs", include_str!("fixtures/bad_r11.rs")),
            ],
        )
    })
}

fn lint(path: &str, source: &str) -> Vec<Violation> {
    let meta = FileMeta::for_path(path).expect("classifiable fixture path");
    lint_source(&meta, source, &Config::default())
}

/// Distinct rule ids fired, in order.
fn rules_fired(path: &str, source: &str) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = lint(path, source).into_iter().map(|v| v.rule).collect();
    rules.dedup();
    rules
}

#[test]
fn r1_default_hasher_map_in_hot_crate() {
    let found = hot_crate().count("clippy::disallowed_types", "r1.rs");
    assert!(found >= 2, "the import and every use of std HashMap: {found}");
}

#[test]
fn r1_is_silent_outside_hot_crates() {
    assert_eq!(cold_crate().count("clippy::disallowed_types", "r1.rs"), 0);
    // Clippy reads the clippy.toml nearest each manifest and does not
    // merge files: the hot crates carry identical copies of the tested
    // file, and every other crate falls back to the workspace one.
    let hot = Config::default().hot_crates;
    let tested = repo_file("crates/core/clippy.toml");
    for krate in &hot {
        assert_eq!(repo_file(&format!("crates/{krate}/clippy.toml")), tested, "{krate}");
    }
    assert!(!repo_file("clippy.toml").contains("disallowed-types ="));
    let crates = std::fs::read_dir(support::repo_root().join("crates")).expect("crates/ lists");
    for dir in crates.map(|e| e.expect("dir entry").path()) {
        let name = dir.file_name().expect("named").to_string_lossy().into_owned();
        if !hot.contains(&name) {
            assert!(!dir.join("clippy.toml").exists(), "{name} is not a hot crate");
        }
    }
}

#[test]
fn r2_wall_clock_in_simulated_code() {
    assert_eq!(
        rules_fired("crates/core/src/fixture.rs", include_str!("fixtures/bad_r2.rs")),
        ["R2"]
    );
}

#[test]
fn r2_is_silent_on_the_allowlist() {
    let vs = lint("crates/bench/src/fixture.rs", include_str!("fixtures/bad_r2.rs"));
    assert!(vs.is_empty(), "bench may time things: {vs:?}");
}

#[test]
fn r3_bare_unwrap_in_library_code() {
    assert_eq!(hot_crate().count("clippy::unwrap_used", "r3.rs"), 1);
}

#[test]
fn r4_crate_root_missing_lint_attrs() {
    // The crate root declares neither attribute; the workspace lint table
    // that every member inherits supplies both.
    assert_eq!(hot_crate().count("unsafe_code", "lib.rs"), 1);
    assert_eq!(hot_crate().count("missing_docs", "lib.rs"), 1);
}

#[test]
fn r4_only_applies_to_crate_roots() {
    // The attributes are declared once per crate, in its manifest; a
    // submodule needs none of its own and is still covered.
    assert_eq!(hot_crate().count("unsafe_code", "other.rs"), 1);
    assert_eq!(hot_crate().count("missing_docs", "other.rs"), 1);
}

#[test]
fn r5_float_sum_over_map_iteration() {
    let vs = lint("crates/analysis/src/fixture.rs", include_str!("fixtures/bad_r5.rs"));
    assert!(vs.iter().all(|v| v.rule == "R5"), "{vs:?}");
    assert_eq!(vs.len(), 2, "turbofish sum and float fold: {vs:?}");
}

#[test]
fn r6_handrolled_json_outside_shared_module() {
    let vs = lint("crates/telemetry/src/fixture.rs", include_str!("fixtures/bad_r6.rs"));
    assert!(vs.iter().all(|v| v.rule == "R6"), "{vs:?}");
    assert_eq!(vs.len(), 2, "escape helper and rogue schema emitter: {vs:?}");
}

#[test]
fn r7_stub_macros() {
    for lint in ["clippy::todo", "clippy::dbg_macro", "clippy::unimplemented"] {
        assert_eq!(hot_crate().count(lint, "r7.rs"), 1, "{lint}");
    }
}

#[test]
fn r8_unknown_crate_import() {
    let found = clippy(
        "retired-rule-r8",
        "clippy.toml",
        "",
        &[("lib.rs", include_str!("fixtures/bad_r8.rs"))],
    );
    // rustc files the missing crate under E0432 or E0433 by version.
    let unresolved = found.count("E0432", "lib.rs") + found.count("E0433", "lib.rs");
    assert_eq!(unresolved, 1, "unresolved import");
}

#[test]
fn r9_transitive_wall_clock_within_one_file() {
    let vs = lint("crates/core/src/fixture.rs", include_str!("fixtures/bad_r9.rs"));
    let direct: Vec<_> = vs.iter().filter(|v| v.rule == "R2").collect();
    let indirect: Vec<_> = vs.iter().filter(|v| v.rule == "R9").collect();
    assert_eq!(direct.len(), 1, "{vs:?}");
    assert_eq!(indirect.len(), 1, "only `entry` is indirectly tainted: {vs:?}");
    assert!(indirect[0].message.contains("entry"), "{:?}", indirect[0].message);
    assert!(indirect[0].message.contains("transitively"), "{:?}", indirect[0].message);
}

#[test]
fn r9_is_silent_on_the_allowlist() {
    let vs = lint("crates/bench/src/fixture.rs", include_str!("fixtures/bad_r9.rs"));
    assert!(vs.is_empty(), "bench may time things, directly or not: {vs:?}");
}

#[test]
fn r9_taints_across_files_and_crates() {
    use planaria_lint::{lint_files, SourceFile};
    let source = |path: &str, text: &str| SourceFile {
        meta: FileMeta::for_path(path).expect("classifiable fixture path"),
        text: text.to_string(),
    };
    let clock = source(
        "crates/trace/src/clock.rs",
        "//! Clock.\n\n/// Direct wall-clock read (R2).\npub fn read_clock() -> u64 {\n    \
         let _ = std::time::SystemTime::now();\n    0\n}\n",
    );
    let driver = source(
        "crates/core/src/driver.rs",
        "//! Driver.\n\n/// Reaches the clock only through another crate.\n\
         pub fn drive() -> u64 {\n    planaria_trace::clock::read_clock()\n}\n",
    );
    let run = lint_files(&[clock, driver], &Config::default());
    let r9: Vec<_> = run.violations.iter().filter(|v| v.rule == "R9").collect();
    assert_eq!(r9.len(), 1, "{:?}", run.violations);
    assert_eq!(r9[0].file, "crates/core/src/driver.rs");
    assert!(r9[0].message.contains("drive"), "{:?}", r9[0].message);
    assert!(run.violations.iter().any(|v| v.rule == "R2"), "direct site still R2");
    assert!(run.functions >= 2 && run.call_edges >= 1, "graph was built");
}

#[test]
fn r10_map_iteration_into_ordered_sink() {
    let vs = lint("crates/analysis/src/fixture.rs", include_str!("fixtures/bad_r10.rs"));
    assert!(vs.iter().all(|v| v.rule == "R10"), "{vs:?}");
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert!(vs[0].message.contains("by_page"), "{:?}", vs[0].message);
}

#[test]
fn r11_narrowing_cast_in_parsing_module() {
    for module in ["crates/trace/src/io.rs", "crates/serve/src/snapshot.rs"] {
        assert!(repo_file(module).lines().any(|l| l == TRUNCATION_GUARD), "{module}");
    }
    let found = hot_crate().count("clippy::cast_possible_truncation", "io.rs");
    assert_eq!(found, 1, "the widening `as u64` must not fire");
}

#[test]
fn r11_is_silent_outside_parsing_modules() {
    assert_eq!(cold_crate().count("clippy::cast_possible_truncation", "r11.rs"), 0);
}

#[test]
fn r12_checks_depend_on_the_crate() {
    // In serve: the unbounded channel and the `Rc` fire; serve is not a
    // hot crate, so the Mutex passes.
    let vs = lint("crates/serve/src/fixture.rs", include_str!("fixtures/bad_r12.rs"));
    assert!(vs.iter().all(|v| v.rule == "R12"), "{vs:?}");
    assert_eq!(vs.len(), 3, "channel + two Rc mentions: {vs:?}");
    assert!(vs.iter().any(|v| v.message.contains("unbounded channel")), "{vs:?}");
    assert!(vs.iter().any(|v| v.message.contains("!Send")), "{vs:?}");

    // In core (hot): the channel and the Mutex fire; core holds no Send
    // device state, so the Rc passes.
    let vs = lint("crates/core/src/fixture.rs", include_str!("fixtures/bad_r12.rs"));
    assert!(vs.iter().all(|v| v.rule == "R12"), "{vs:?}");
    assert_eq!(vs.len(), 3, "channel + two Mutex mentions: {vs:?}");
    assert!(vs.iter().any(|v| v.message.contains("hot-path")), "{vs:?}");

    // In the lock allowlist (sim's runner): only the channel fires.
    let vs = lint("crates/sim/src/runner.rs", include_str!("fixtures/bad_r12.rs"));
    assert!(vs.iter().all(|v| v.rule == "R12"), "{vs:?}");
    assert_eq!(vs.len(), 1, "lock_allow excuses the Mutex: {vs:?}");
}

#[test]
fn clean_flow_fixture_passes_the_flow_rules_where_they_all_apply() {
    // `crates/trace/src/io.rs` is a hot crate, so every flow rule is live
    // against this fixture.
    let vs = lint("crates/trace/src/io.rs", include_str!("fixtures/clean_flow.rs"));
    assert!(vs.is_empty(), "sanctioned flow forms must not fire: {vs:?}");
}

#[test]
fn structural_parser_handles_tricky_shapes() {
    use planaria_lint::syntax::ItemTree;
    let tree = ItemTree::parse_source(include_str!("fixtures/tricky_structure.rs"));
    let fns = tree.fns();
    let names: Vec<&str> = fns.iter().map(|f| f.item.name.as_str()).collect();
    assert!(names.contains(&"outer"), "{names:?}");
    assert!(names.contains(&"inner"), "impl-in-fn / fn-in-fn bodies are parsed: {names:?}");
    assert!(names.contains(&"match"), "raw idents lex to their bare name: {names:?}");
    let find = |name: &str| fns.iter().find(|f| f.item.name == name).expect("fn present");
    assert!(find("helper").item.cfg_test, "doubly-nested cfg(test) is test code");
    assert!(find("works").item.cfg_test, "#[test] fns are test code");
    assert!(!find("outer").item.cfg_test);
    assert!(!find("inner").item.cfg_test);
}

#[test]
fn clean_fixture_passes_every_rule_as_a_hot_crate_root() {
    let vs = lint("crates/core/src/lib.rs", include_str!("fixtures/clean.rs"));
    assert!(vs.is_empty(), "sanctioned forms must not fire: {vs:?}");
}

#[test]
fn tricky_strings_and_comments_never_fire() {
    let vs = lint("crates/core/src/fixture.rs", include_str!("fixtures/tricky.rs"));
    assert!(vs.is_empty(), "triggers in strings/comments are data: {vs:?}");
}

#[test]
fn bad_manifest_fires_r8_per_registry_dependency() {
    let fixture = include_str!("fixtures/bad_manifest.toml");
    let remote = [
        "rayon = \"1.10\"\n",
        "[dependencies.reqwest]\nversion = \"0.12\"\n",
        "quickcheck = { git = \"https://example.com/quickcheck.git\" }\n",
    ];
    let without = |dropped: &[&str]| {
        dropped.iter().fold(fixture.to_string(), |m, dep| {
            assert!(m.contains(dep), "fixture declares {dep}");
            m.replace(dep, "")
        })
    };
    for (i, dep) in remote.iter().enumerate() {
        let others: Vec<&str> = remote.iter().copied().filter(|d| d != dep).collect();
        assert!(!lock_is_local(&format!("rogue-r8-{i}"), &without(&others)), "{dep}");
    }
    assert!(lock_is_local("rogue-r8-local", &without(&remote)), "the path dependency is local");
}

#[test]
fn clean_manifest_is_silent() {
    assert!(lock_is_local("tidy-r8", include_str!("fixtures/clean_manifest.toml")));
    // The workspace itself: registry and git packages carry a source line.
    let lock = repo_file("Cargo.lock");
    let remote: Vec<&str> = lock.lines().filter(|l| l.starts_with("source = ")).collect();
    assert!(remote.is_empty(), "Cargo.lock names remote packages: {remote:?}");
}

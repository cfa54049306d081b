//! The rule set: what each invariant is, and how it is detected.
//!
//! Every rule works on the token stream produced by [`crate::lexer`], so
//! rule-triggering text inside comments, doc comments and string literals
//! never false-positives. The rules about production behaviour (R2, R5,
//! R9, R10, R12) additionally skip `#[cfg(test)]`-gated regions and test
//! files (`tests/`, `benches/`) — tests may read wall clocks, iterate
//! maps and spawn channels freely.

use crate::lexer::{lex, Token, TokenKind};

/// Where a scanned file lives in the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// `crates/<name>/…` — first-party simulator code.
    FirstParty,
    /// `vendor/<name>/…` — vendored offline dependency stand-ins.
    Vendor,
    /// Top-level `tests/…` — cross-crate integration tests.
    TopTests,
    /// Top-level `examples/…` — user-facing example programs.
    Examples,
}

/// Everything the rules need to know about a file besides its tokens.
#[derive(Debug, Clone)]
pub struct FileMeta {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Owning crate directory name (`core`, `planaria-hash`, …), or the
    /// top-level directory name for `tests/` / `examples/` files.
    pub crate_name: String,
    /// Which part of the workspace the file belongs to.
    pub origin: Origin,
    /// True for files under any `tests/` or `benches/` directory.
    pub is_test_file: bool,
}

impl FileMeta {
    /// Classifies a workspace-relative path (`/`-separated).
    ///
    /// Returns `None` for files no rule applies to (e.g. paths outside
    /// the known top-level directories).
    pub fn for_path(rel: &str) -> Option<FileMeta> {
        let parts: Vec<&str> = rel.split('/').collect();
        let (origin, crate_name) = match parts.first().copied() {
            Some("crates") => (Origin::FirstParty, (*parts.get(1)?).to_string()),
            Some("vendor") => (Origin::Vendor, (*parts.get(1)?).to_string()),
            Some("tests") => (Origin::TopTests, "tests".to_string()),
            Some("examples") => (Origin::Examples, "examples".to_string()),
            Some("benches") => (Origin::TopTests, "benches".to_string()),
            _ => return None,
        };
        let is_test_file = match origin {
            Origin::TopTests => true,
            Origin::FirstParty | Origin::Vendor => {
                parts.get(2).is_some_and(|p| *p == "tests" || *p == "benches")
            }
            Origin::Examples => false,
        };
        Some(FileMeta { path: rel.to_string(), crate_name, origin, is_test_file })
    }
}

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id (one of [`RULES`]).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// The offending source line, trimmed and capped.
    pub snippet: String,
    /// Human-readable explanation with the sanctioned fix.
    pub message: String,
}

/// Static description of one rule, used by `--list-rules`, `--explain`
/// and the report.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable id (`R2`, `R5`, …; retired ids are never reused).
    pub id: &'static str,
    /// Short kebab-case name.
    pub name: &'static str,
    /// One-line summary of the invariant.
    pub summary: &'static str,
    /// Why the invariant exists (shown by `--explain`).
    pub rationale: &'static str,
    /// A minimal example that fires the rule.
    pub fires: &'static str,
    /// The sanctioned counterpart that does not fire.
    pub clean: &'static str,
}

/// All rules, in id order.
pub const RULES: [RuleInfo; 6] = [
    RuleInfo {
        id: "R2",
        name: "no-wall-clock",
        summary: "no Instant::now/SystemTime/thread_rng/std::env outside the timing allowlist",
        rationale: "simulated state must be a pure function of its inputs; a wall-clock read or \
                    ambient environment lookup makes results irreproducible. Timing belongs in \
                    the allowlisted runner/bench layer.",
        fires: "let t0 = std::time::Instant::now();",
        clean: "fn step(&mut self, now: Cycle) { /* time arrives as data */ }",
    },
    RuleInfo {
        id: "R5",
        name: "no-map-order-floats",
        summary: "no float accumulation driven by hash-map iteration order",
        rationale: "float addition is not associative, so summing .values() in hash order \
                    yields different totals on different runs even with the same entries.",
        fires: "let total: f64 = map.values().sum::<f64>();",
        clean: "let mut vs: Vec<_> = map.values().collect();\nvs.sort_by(f64::total_cmp);\n\
                let total: f64 = vs.iter().copied().sum();",
    },
    RuleInfo {
        id: "R6",
        name: "shared-json",
        summary: "JSON emitters route through planaria_common::json helpers",
        rationale: "hand-rolled writers drift: key order, float formatting and escaping all \
                    become schema hazards. One shared writer keeps equal reports byte-identical.",
        fires: "fn escape_json(s: &str) -> String { /* local copy */ String::new() }",
        clean: "use planaria_common::json::Writer;\nlet mut w = Writer::pretty();",
    },
    RuleInfo {
        id: "R9",
        name: "no-transitive-wall-clock",
        summary: "no function may *reach* a wall-clock/entropy source through calls (call-graph \
                  upgrade of R2's call-site check)",
        rationale: "R2 only sees the literal call site; hiding Instant::now() one helper away \
                    defeats it. R9 walks the workspace call graph backwards from every direct \
                    read, so the taint is caught wherever it enters simulated code. Allowlisted \
                    files are barriers: their fns are the sanctioned timing API.",
        fires: "fn stamp() -> u64 { /* Instant::now() here */ 0 }\n\
                fn decide(&mut self) { let _ = stamp(); } // R9: reaches the clock",
        clean: "fn decide(&mut self, now: Cycle) { /* timestamps arrive as data */ }",
    },
    RuleInfo {
        id: "R10",
        name: "no-map-order-sinks",
        summary: "no hash-map iteration flowing into ordered sinks (Vec pushes, JSON writers, \
                  float accumulators) without an intervening sort",
        rationale: "generalizes R5: any order-sensitive sink fed from hash iteration — a Vec \
                    that is never sorted, a JSON writer, a float += — bakes the hasher's \
                    whim into output bytes.",
        fires: "for v in map.values() { out.push(v); } // `out` never sorted",
        clean: "let mut items: Vec<_> = map.iter().collect();\nitems.sort_by_key(|(k, _)| *k);\n\
                for (_, v) in items { out.push(v); }",
    },
    RuleInfo {
        id: "R12",
        name: "concurrency-hygiene",
        summary: "no unbounded channels anywhere; no Rc/RefCell in Send device state; no locks \
                  in hot crates outside the allowlist",
        rationale: "an unbounded channel is an OOM with extra steps under load; Rc/RefCell in \
                    serving state blocks Send and hides aliasing; a lock on a hot path \
                    serializes the very parallelism the sharded design exists to provide.",
        fires: "let (tx, rx) = std::sync::mpsc::channel();",
        clean: "let (tx, rx) = std::sync::mpsc::sync_channel(MAILBOX_BOUND);",
    },
];

/// Scan configuration: which crates are hot, which paths may read wall
/// clocks, which crates hold `Send` device state.
#[derive(Debug, Clone)]
pub struct Config {
    /// Per-access hot-path crates, where locks are banned (rule R12).
    pub hot_crates: Vec<String>,
    /// Path prefixes allowed to use wall-clock / environment sources.
    pub nondet_allow: Vec<String>,
    /// Crate directory names whose device state must stay `Send`: no
    /// `Rc`/`RefCell` (rule R12).
    pub send_state_crates: Vec<String>,
    /// Path prefixes exempt from the hot-crate lock ban (rule R12) —
    /// reviewed sites like the runner's Arc-shared trace cache.
    pub lock_allow: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            hot_crates: ["core", "cache", "dram", "sim", "trace"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            nondet_allow: [
                // The figure/benchmark harnesses parse argv and time grids.
                "crates/bench/",
                // The runner's RunReport measures wall-clock per cell.
                "crates/sim/src/runner.rs",
                // Offline trace CLI tool.
                "crates/trace/src/bin/",
                // The lint binary itself parses argv.
                "crates/lint/src/main.rs",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            send_state_crates: ["serve"].iter().map(|s| s.to_string()).collect(),
            lock_allow: [
                // The runner's cross-thread trace cache and sample sink
                // are reviewed, coarse-grained and off the per-access path.
                "crates/sim/src/runner.rs",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        }
    }
}

/// Lints one Rust source file in isolation; returns its violations in
/// line order.
///
/// Runs every per-file rule **plus** a single-file call-graph pass, so
/// the flow-aware rules (R9) fire on intra-file taint. Cross-file taint
/// needs the whole workspace — use [`crate::lint_files`] for that.
pub fn lint_source(meta: &FileMeta, source: &str, config: &Config) -> Vec<Violation> {
    let files = [crate::SourceFile { meta: meta.clone(), text: source.to_string() }];
    crate::lint_files(&files, config).violations
}

/// The token-level half of [`lint_source`]: every rule except R9, each
/// needing only this one file's tokens.
pub(crate) fn lint_source_tokens(meta: &FileMeta, source: &str, config: &Config) -> Vec<Violation> {
    let tokens = lex(source);
    let in_test = test_regions(&tokens);
    let lines: Vec<&str> = source.lines().collect();
    let mut out = Vec::new();

    let ctx = Ctx { meta, tokens: &tokens, in_test: &in_test, lines: &lines, config };
    rule_no_wall_clock(&ctx, &mut out);
    rule_no_map_order_floats(&ctx, &mut out);
    rule_shared_json(&ctx, &mut out);
    rule_map_order_sinks(&ctx, &mut out);
    rule_concurrency_hygiene(&ctx, &mut out);

    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

struct Ctx<'a> {
    meta: &'a FileMeta,
    tokens: &'a [Token],
    in_test: &'a [bool],
    lines: &'a [&'a str],
    config: &'a Config,
}

impl Ctx<'_> {
    fn snippet(&self, line: u32) -> String {
        self.lines.get(line as usize - 1).map(|l| snippet_of(l)).unwrap_or_default()
    }

    fn emit(&self, out: &mut Vec<Violation>, rule: &'static str, line: u32, message: String) {
        out.push(Violation {
            rule,
            file: self.meta.path.clone(),
            line,
            snippet: self.snippet(line),
            message,
        });
    }

    /// Non-test production code: not a test file, token not in a
    /// `#[cfg(test)]` region.
    fn is_prod(&self, i: usize) -> bool {
        !self.meta.is_test_file && !self.in_test[i]
    }

    fn first_party_prod(&self) -> bool {
        matches!(self.meta.origin, Origin::FirstParty | Origin::Examples) && !self.meta.is_test_file
    }
}

pub(crate) fn snippet_of(line: &str) -> String {
    let t = line.trim();
    if t.len() > 120 {
        let mut end = 117;
        while !t.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}...", &t[..end])
    } else {
        t.to_string()
    }
}

/// Marks tokens inside `#[cfg(test)]`-gated items (and `#[test]` fns).
///
/// An attribute containing the `cfg` and `test` identifiers gates the
/// following item; the gated region runs to the item's closing brace (or
/// terminating semicolon for brace-less items like `use`).
pub(crate) fn test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && i + 1 < tokens.len() && tokens[i + 1].is_punct('[') {
            // Scan the attribute body for `cfg … test` or a bare `test`.
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut saw_cfg = false;
            let mut saw_test = false;
            let mut bare_test = None;
            while j < tokens.len() && depth > 0 {
                let t = &tokens[j];
                if t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(']') {
                    depth -= 1;
                } else if t.is_ident("cfg") {
                    saw_cfg = true;
                } else if t.is_ident("not") {
                    // `#[cfg(not(test))]` gates *production* code.
                    saw_cfg = false;
                } else if t.is_ident("test") {
                    saw_test = true;
                    if j == i + 2 {
                        bare_test = Some(());
                    }
                }
                j += 1;
            }
            let gates_test = (saw_cfg && saw_test) || bare_test.is_some();
            if gates_test {
                // `j` is just past the closing ']'. Skip further
                // attributes, then mark the item through its `{…}` or `;`.
                let mut k = j;
                while k + 1 < tokens.len() && tokens[k].is_punct('#') && tokens[k + 1].is_punct('[')
                {
                    let mut d = 1usize;
                    k += 2;
                    while k < tokens.len() && d > 0 {
                        if tokens[k].is_punct('[') {
                            d += 1;
                        } else if tokens[k].is_punct(']') {
                            d -= 1;
                        }
                        k += 1;
                    }
                }
                let start = i;
                while k < tokens.len() {
                    if tokens[k].is_punct(';') {
                        k += 1;
                        break;
                    }
                    if tokens[k].is_punct('{') {
                        let mut d = 1usize;
                        k += 1;
                        while k < tokens.len() && d > 0 {
                            if tokens[k].is_punct('{') {
                                d += 1;
                            } else if tokens[k].is_punct('}') {
                                d -= 1;
                            }
                            k += 1;
                        }
                        break;
                    }
                    k += 1;
                }
                for slot in in_test.iter_mut().take(k).skip(start) {
                    *slot = true;
                }
                i = k;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    in_test
}

/// Recognises a direct wall-clock / nondeterminism pattern at token `i`:
/// `SystemTime`, `thread_rng`, `from_entropy`, `Instant::now`,
/// `std::env`. Returns what was reached. Shared between R2 (call-site
/// reports) and the R9 call-graph taint pass in [`crate::callgraph`].
pub(crate) fn wall_clock_at(toks: &[Token], i: usize) -> Option<String> {
    let t = toks.get(i)?;
    if t.is_ident("SystemTime") || t.is_ident("thread_rng") || t.is_ident("from_entropy") {
        return Some(t.text.clone());
    }
    let qualified = |name: &str| {
        matches!(toks.get(i + 1), Some(c) if c.is_punct(':'))
            && matches!(toks.get(i + 2), Some(c) if c.is_punct(':'))
            && matches!(toks.get(i + 3), Some(n) if n.is_ident(name))
    };
    if t.is_ident("Instant") && qualified("now") {
        return Some("Instant::now".to_string());
    }
    if t.is_ident("std") && qualified("env") {
        return Some("std::env".to_string());
    }
    None
}

/// R2 — wall-clock / nondeterminism sources outside the allowlist.
fn rule_no_wall_clock(ctx: &Ctx<'_>, out: &mut Vec<Violation>) {
    if !ctx.first_party_prod() {
        return;
    }
    if ctx.config.nondet_allow.iter().any(|p| ctx.meta.path.starts_with(p.as_str())) {
        return;
    }
    let toks = ctx.tokens;
    for (i, t) in toks.iter().enumerate() {
        if !ctx.is_prod(i) {
            continue;
        }
        if let Some(what) = wall_clock_at(toks, i) {
            ctx.emit(
                out,
                "R2",
                t.line,
                format!(
                    "{what} is a nondeterminism source; simulated code must be a pure function \
                     of its inputs (timing belongs in the runner/bench allowlist)"
                ),
            );
        }
    }
}

/// R5 — float accumulation over hash-map iteration order.
fn rule_no_map_order_floats(ctx: &Ctx<'_>, out: &mut Vec<Violation>) {
    if !ctx.first_party_prod() {
        return;
    }
    const MAP_ITERS: [&str; 6] =
        ["values", "values_mut", "into_values", "keys", "into_keys", "drain"];
    let toks = ctx.tokens;
    for i in 0..toks.len() {
        if !ctx.is_prod(i) {
            continue;
        }
        let t = &toks[i];
        if !(t.kind == TokenKind::Ident && MAP_ITERS.contains(&t.text.as_str())) {
            continue;
        }
        if !(matches!(toks.get(i + 1), Some(p) if p.is_punct('('))
            && matches!(toks.get(i + 2), Some(p) if p.is_punct(')')))
        {
            continue;
        }
        // Look ahead within the same statement for a float accumulator.
        let mut j = i + 3;
        let limit = (i + 60).min(toks.len());
        while j < limit && !toks[j].is_punct(';') {
            let u = &toks[j];
            let float_turbofish = (u.is_ident("sum") || u.is_ident("product"))
                && matches!(toks.get(j + 1), Some(p) if p.is_punct(':'))
                && matches!(toks.get(j + 2), Some(p) if p.is_punct(':'))
                && matches!(toks.get(j + 3), Some(p) if p.is_punct('<'))
                && matches!(toks.get(j + 4), Some(f) if f.is_ident("f64") || f.is_ident("f32"));
            let float_fold = u.is_ident("fold")
                && matches!(toks.get(j + 1), Some(p) if p.is_punct('('))
                && matches!(
                    toks.get(j + 2),
                    Some(n) if n.kind == TokenKind::NumLit
                        && (n.text.contains('.')
                            || n.text.contains("f64")
                            || n.text.contains("f32"))
                );
            if float_turbofish || float_fold {
                ctx.emit(
                    out,
                    "R5",
                    t.line,
                    format!(
                        ".{}() iterates in hash order; float addition is not associative, so \
                         the sum depends on iteration order — accumulate integers, or collect \
                         and sort first",
                        t.text
                    ),
                );
                break;
            }
            j += 1;
        }
    }
}

/// R6 — JSON emitters route through `planaria_common::json`.
fn rule_shared_json(ctx: &Ctx<'_>, out: &mut Vec<Violation>) {
    if ctx.meta.origin != Origin::FirstParty {
        return;
    }
    let toks = ctx.tokens;
    let in_common_json = ctx.meta.path == "crates/common/src/json.rs";

    // (a) Local JSON-escape helper definitions.
    if !in_common_json {
        for i in 0..toks.len() {
            if toks[i].is_ident("fn")
                && matches!(
                    toks.get(i + 1),
                    Some(n) if n.is_ident("escape_json") || n.is_ident("json_escape")
                )
            {
                ctx.emit(
                    out,
                    "R6",
                    toks[i].line,
                    "local JSON escape helper duplicates planaria_common::json::escape; use \
                     the shared helper"
                        .to_string(),
                );
            }
        }
    }

    // (b) Schema emitters (a full `planaria-*-v1` schema-id string
    // literal) must reference the shared json module somewhere.
    if in_common_json {
        return;
    }
    let schema_lit = toks.iter().find(|t| {
        t.kind == TokenKind::StrLit && t.text.starts_with("planaria-") && t.text.ends_with("-v1")
    });
    if let Some(lit) = schema_lit {
        let uses_shared = toks.iter().any(|t| t.is_ident("json"));
        if !uses_shared {
            ctx.emit(
                out,
                "R6",
                lit.line,
                format!(
                    "file emits the `{}` schema but never references the planaria_common::json \
                     helpers; hand-rolled writers drift out of sync",
                    lit.text
                ),
            );
        }
    }
}

/// Hash-map container type names rule R10 tracks.
const MAP_TYPES: [&str; 4] = ["HashMap", "HashSet", "FastHashMap", "FastHashSet"];

/// Iterator-producing methods whose order is the hasher's.
const MAP_ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// R10 — hash-map iteration flowing into ordered sinks.
///
/// Tracks, per file: identifiers *declared* as hash maps (`x: FastHashMap<…>`
/// or `x = HashMap::new()`), identifiers declared as float accumulators,
/// and identifiers that are sorted somewhere (`x.sort*`). A `for` loop
/// whose header iterates a map identifier is then scanned for ordered
/// sinks in its body: `vec.push(…)` where `vec` is never sorted, a JSON
/// writer `.key(…)`, `push_str`/`write!`, or `float += …`. Chained
/// iterator expressions outside `for` headers are *not* tracked (a
/// documented false negative — R5 covers the float-fold shape of those).
fn rule_map_order_sinks(ctx: &Ctx<'_>, out: &mut Vec<Violation>) {
    if !ctx.first_party_prod() {
        return;
    }
    let toks = ctx.tokens;

    // Pass 1: classify identifiers by their declarations.
    let mut map_idents: Vec<&str> = Vec::new();
    let mut float_idents: Vec<&str> = Vec::new();
    let mut sorted_idents: Vec<&str> = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        // `name: [& mut 'a]* MapType` / `name: f64` — a single colon
        // (both neighbors must not be ':', or this is a `::` path).
        let single_colon = matches!(toks.get(i + 1), Some(p) if p.is_punct(':'))
            && !matches!(toks.get(i + 2), Some(p) if p.is_punct(':'))
            && !(i > 0 && toks[i - 1].is_punct(':'));
        if single_colon {
            let mut j = i + 2;
            while matches!(
                toks.get(j),
                Some(t) if t.is_punct('&') || t.is_ident("mut") || t.kind == TokenKind::Lifetime
            ) {
                j += 1;
            }
            if let Some(ty) = toks.get(j) {
                if MAP_TYPES.iter().any(|m| ty.is_ident(m)) {
                    map_idents.push(t.text.as_str());
                } else if ty.is_ident("f64") || ty.is_ident("f32") {
                    float_idents.push(t.text.as_str());
                }
            }
        }
        // `name = MapType::…` / `name = 0.0` (plain assignment, not ==).
        let plain_assign = matches!(toks.get(i + 1), Some(p) if p.is_punct('='))
            && !matches!(toks.get(i + 2), Some(p) if p.is_punct('='))
            && !(i > 0 && toks[i - 1].is_punct('='));
        if plain_assign {
            match toks.get(i + 2) {
                Some(ty)
                    if MAP_TYPES.iter().any(|m| ty.is_ident(m))
                        && matches!(toks.get(i + 3), Some(p) if p.is_punct(':')) =>
                {
                    map_idents.push(t.text.as_str());
                }
                Some(n)
                    if n.kind == TokenKind::NumLit
                        && (n.text.contains('.')
                            || n.text.ends_with("f64")
                            || n.text.ends_with("f32")) =>
                {
                    float_idents.push(t.text.as_str());
                }
                _ => {}
            }
        }
        // `name.sort…(…)` anywhere absolves later pushes into `name`.
        if matches!(toks.get(i + 1), Some(p) if p.is_punct('.'))
            && matches!(toks.get(i + 2), Some(m) if m.kind == TokenKind::Ident
                && m.text.starts_with("sort"))
        {
            sorted_idents.push(t.text.as_str());
        }
    }
    if map_idents.is_empty() {
        return;
    }

    // Pass 2: `for` loops whose header iterates a map identifier.
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_ident("for") || !ctx.is_prod(i) {
            i += 1;
            continue;
        }
        // `impl Trait for Type` / HRTB `for<'a>`: not loops.
        if i > 0 && (toks[i - 1].kind == TokenKind::Ident || toks[i - 1].is_punct('>')) {
            i += 1;
            continue;
        }
        if matches!(toks.get(i + 1), Some(p) if p.is_punct('<')) {
            i += 1;
            continue;
        }
        // Locate `in` at bracket depth 0, then the body `{`.
        let mut depth = 0usize;
        let mut j = i + 1;
        let mut in_pos = None;
        while j < toks.len() && j < i + 60 {
            let t = &toks[j];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth = depth.saturating_sub(1);
            } else if depth == 0 && t.is_ident("in") {
                in_pos = Some(j);
                break;
            }
            j += 1;
        }
        let Some(in_pos) = in_pos else {
            i += 1;
            continue;
        };
        let mut depth = 0usize;
        let mut k = in_pos + 1;
        let mut brace = None;
        while k < toks.len() {
            let t = &toks[k];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth = depth.saturating_sub(1);
            } else if depth == 0 && t.is_punct('{') {
                brace = Some(k);
                break;
            }
            k += 1;
        }
        let Some(brace) = brace else {
            i += 1;
            continue;
        };

        // Does the header iterate a tracked map?
        let header = &toks[in_pos + 1..brace];
        let mut iterated: Option<&str> = None;
        for (h, t) in header.iter().enumerate() {
            if t.kind != TokenKind::Ident || !map_idents.contains(&t.text.as_str()) {
                continue;
            }
            let via_method = matches!(header.get(h + 1), Some(p) if p.is_punct('.'))
                && matches!(header.get(h + 2), Some(m) if MAP_ITER_METHODS
                    .iter()
                    .any(|im| m.is_ident(im)));
            // `for x in &map` / `for x in map`: header is only the map
            // ident plus reference sigils.
            let bare = header.iter().all(|u| {
                u.is_punct('&')
                    || u.is_ident("mut")
                    || (u.kind == TokenKind::Ident && u.text == t.text)
            });
            if via_method || bare {
                iterated = Some(t.text.as_str());
                break;
            }
        }
        let Some(map_name) = iterated else {
            i = brace + 1;
            continue;
        };

        // Scan the body for ordered sinks.
        let mut depth = 1usize;
        let mut b = brace + 1;
        let mut sink: Option<(u32, String)> = None;
        while b < toks.len() && depth > 0 {
            let t = &toks[b];
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
            } else if ctx.is_prod(b) && t.kind == TokenKind::Ident && sink.is_none() {
                // `x.push(` with `x` never sorted.
                if matches!(toks.get(b + 1), Some(p) if p.is_punct('.'))
                    && matches!(toks.get(b + 2), Some(m) if m.is_ident("push"))
                    && matches!(toks.get(b + 3), Some(p) if p.is_punct('('))
                    && !sorted_idents.contains(&t.text.as_str())
                {
                    sink = Some((t.line, format!("`{}.push(…)` (never sorted)", t.text)));
                }
                // JSON writer `.key(` / `.push_str(`.
                if (t.is_ident("key") || t.is_ident("push_str"))
                    && b > 0
                    && toks[b - 1].is_punct('.')
                    && matches!(toks.get(b + 1), Some(p) if p.is_punct('('))
                {
                    sink = Some((t.line, format!("`.{}(…)`", t.text)));
                }
                // `write!`/`writeln!`.
                if (t.is_ident("write") || t.is_ident("writeln"))
                    && matches!(toks.get(b + 1), Some(p) if p.is_punct('!'))
                {
                    sink = Some((t.line, format!("`{}!`", t.text)));
                }
                // Float accumulation `acc += …`.
                if float_idents.contains(&t.text.as_str())
                    && matches!(toks.get(b + 1), Some(p) if p.is_punct('+'))
                    && matches!(toks.get(b + 2), Some(p) if p.is_punct('='))
                {
                    sink = Some((t.line, format!("float accumulator `{} += …`", t.text)));
                }
            }
            b += 1;
        }
        if let Some((_, what)) = sink {
            ctx.emit(
                out,
                "R10",
                toks[i].line,
                format!(
                    "loop iterates hash map `{map_name}` and feeds {what}, an order-sensitive \
                     sink; hash iteration order varies — collect and sort before the loop, or \
                     use an order-independent reduction"
                ),
            );
        }
        i = brace + 1;
    }
}

/// Lock type names banned from hot crates (R12c).
const LOCK_TYPES: [&str; 3] = ["Mutex", "RwLock", "Condvar"];

/// R12 — concurrency hygiene: unbounded channels, non-`Send` interior
/// mutability in device state, locks on hot paths.
fn rule_concurrency_hygiene(ctx: &Ctx<'_>, out: &mut Vec<Violation>) {
    if !ctx.first_party_prod() {
        return;
    }
    let toks = ctx.tokens;
    let send_state = ctx.config.send_state_crates.contains(&ctx.meta.crate_name);
    let hot = ctx.config.hot_crates.contains(&ctx.meta.crate_name)
        && !ctx.config.lock_allow.iter().any(|p| ctx.meta.path.starts_with(p.as_str()));
    for i in 0..toks.len() {
        if !ctx.is_prod(i) {
            continue;
        }
        let t = &toks[i];
        // (a) Unbounded channels — everywhere in first-party prod code.
        let mpsc_channel = t.is_ident("mpsc")
            && matches!(toks.get(i + 1), Some(p) if p.is_punct(':'))
            && matches!(toks.get(i + 2), Some(p) if p.is_punct(':'))
            && matches!(toks.get(i + 3), Some(n) if n.is_ident("channel"));
        let unbounded_call = (t.is_ident("unbounded") || t.is_ident("unbounded_channel"))
            && matches!(toks.get(i + 1), Some(p) if p.is_punct('('));
        if mpsc_channel || unbounded_call {
            ctx.emit(
                out,
                "R12",
                t.line,
                "unbounded channel: under load this is an OOM with extra steps — use a \
                 bounded channel (sync_channel) sized like the serve mailbox"
                    .to_string(),
            );
            continue;
        }
        // (b) `Rc`/`RefCell` in crates whose device state must be Send.
        if send_state && (t.is_ident("Rc") || t.is_ident("RefCell")) {
            ctx.emit(
                out,
                "R12",
                t.line,
                format!(
                    "{} is !Send (or hides aliasing) — served device state migrates across \
                     worker threads; use owned state or Arc with explicit sharing",
                    t.text
                ),
            );
            continue;
        }
        // (c) Locks in hot crates outside the allowlist.
        if hot && LOCK_TYPES.iter().any(|l| t.is_ident(l)) {
            ctx.emit(
                out,
                "R12",
                t.line,
                format!(
                    "{} on a hot-path crate serializes the sharded parallelism; keep per-shard \
                     state owned and merge deterministically (or add the reviewed site to \
                     lock_allow)",
                    t.text
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toolchain;

    #[test]
    fn cfg_test_regions_are_exempt() {
        let src = "
            pub fn prod() {}
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { let t0 = std::time::Instant::now(); let _ = t0.elapsed(); }
            }
        ";
        let meta = FileMeta::for_path("crates/core/src/x.rs").expect("classifiable path");
        assert!(lint_source(&meta, src, &Config::default()).is_empty());
    }

    /// A hot crate's `clippy.toml` (retired R1) over library code holding
    /// a std map (`std_map.rs`) and the sanctioned `planaria_hash`
    /// replacements (`approved.rs`): `FastHashMap`/`FastHashSet` for
    /// general maps, `FixedIndex` for the fixed-capacity page→slot tables
    /// on the SLP/TLP per-access paths.
    fn hot_crate_maps() -> &'static toolchain::Findings {
        static RUN: std::sync::OnceLock<toolchain::Findings> = std::sync::OnceLock::new();
        RUN.get_or_init(|| {
            toolchain::clippy(
                "retired-rule-r1",
                "crates/cache/clippy.toml",
                "[dependencies]\nplanaria-hash = { path = \"{repo}/vendor/planaria-hash\" }\n",
                &[
                    ("lib.rs", "//! Maps.\n\npub mod approved;\npub mod std_map;\n"),
                    (
                        "std_map.rs",
                        "//! Std map.\n\nuse std::collections::HashMap;\n\n\
                         /// Default hasher.\npub fn f() -> HashMap<u64, u64> {\n    \
                         HashMap::new()\n}\n",
                    ),
                    (
                        "approved.rs",
                        "//! Approved maps.\n\n\
                         use planaria_hash::{FastHashMap, FastHashSet, FixedIndex};\n\n\
                         /// Sanctioned containers.\n\
                         pub fn f() -> (FastHashMap<u64, u64>, FastHashSet<u64>, FixedIndex) {\n    \
                         (FastHashMap::default(), FastHashSet::default(), \
                         FixedIndex::with_capacity(128))\n}\n",
                    ),
                ],
            )
        })
    }

    #[test]
    fn hot_crate_hashmap_fires_outside_tests() {
        assert!(hot_crate_maps().count("clippy::disallowed_types", "std_map.rs") >= 2);
    }

    #[test]
    fn approved_hot_path_containers_do_not_fire() {
        assert_eq!(hot_crate_maps().count("clippy::disallowed_types", "approved.rs"), 0);
        // The crate was linted: a seeded use of a std map beside it fired.
        assert!(hot_crate_maps().count("clippy::disallowed_types", "std_map.rs") > 0);
    }

    /// A manifest of `package` with one `[dependencies]` entry.
    fn manifest(package: &str, dependency: &str) -> String {
        format!(
            "[package]\nname = \"{package}\"\nversion = \"0.1.0\"\nedition = \"2021\"\n\n\
             [dependencies]\n{dependency}\n"
        )
    }

    #[test]
    fn manifest_registry_dep_is_flagged() {
        // Retired R8: a registry package fails the offline lock check.
        let bad = manifest("registry-dep", "rayon = \"1.10\"");
        assert!(!toolchain::lock_is_local("registry-dep", &bad));
        let good = manifest("path-dep", "rand = { path = \"{repo}/vendor/rand\" }");
        assert!(toolchain::lock_is_local("path-dep", &good));
    }

    #[test]
    fn manifest_git_dep_is_flagged() {
        let bad = manifest("git-dep", "foo = { git = \"https://example.com/foo\" }");
        assert!(!toolchain::lock_is_local("git-dep", &bad));
    }
}

//! Runs the toolchain checks that replaced the retired planaria-lint
//! rules (R1, R3, R4, R7, R8, R11) on throwaway crates: clippy under the
//! workspace's `[workspace.lints]` table and a chosen `clippy.toml`, and
//! `ci.sh`'s offline lock check. Shared by the lint crate's unit tests and
//! its fixture tests.
//!
//! Every cargo call passes `--offline`: a registry or git dependency must
//! fail to resolve, never be fetched.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The repository root.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// A file of the repository, read whole.
pub fn repo_file(rel: &str) -> String {
    let path = repo_root().join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// A fresh directory for one scratch crate, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("src")).expect("create scratch crate");
        Scratch(dir)
    }

    fn write(&self, rel: &str, text: &str) {
        std::fs::write(self.0.join(rel), text).expect("write scratch file");
    }

    fn cargo(&self, args: &[&str]) -> std::process::Output {
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        Command::new(cargo)
            .args(args)
            .arg("--offline")
            .arg("--manifest-path")
            .arg(self.0.join("Cargo.toml"))
            .env("CARGO_NET_OFFLINE", "true")
            .env("CARGO_TARGET_DIR", self.0.join("target"))
            .output()
            .expect("run cargo")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The `[workspace.lints.*]` tables of the root manifest, verbatim.
fn workspace_lint_tables() -> String {
    let mut keep = false;
    let mut out = String::new();
    for line in repo_file("Cargo.toml").lines() {
        if line.starts_with('[') {
            keep = line.starts_with("[workspace.lints.");
        }
        if keep {
            out.push_str(line);
            out.push('\n');
        }
    }
    assert!(!out.is_empty(), "the root manifest has no [workspace.lints] table");
    out
}

/// Clippy's diagnostics for one scratch crate, as cargo's JSON messages.
pub struct Findings(String);

impl Findings {
    /// How many diagnostics with lint name or error code `code` point into
    /// `src/<file>`.
    pub fn count(&self, code: &str, file: &str) -> usize {
        let code = format!("\"code\":{{\"code\":\"{code}\"");
        let file = format!("\"file_name\":\"src/{file}\"");
        self.0.lines().filter(|l| l.contains(&code) && l.contains(&file)).count()
    }
}

/// Runs `cargo clippy -- -D warnings` on a scratch crate named `name` that
/// inherits the workspace lint table, reads the repository's
/// `clippy_toml`, declares `deps` (a manifest fragment, `{repo}` standing
/// for the repository root) and holds `files` under `src/`, `lib.rs`
/// among them.
pub fn clippy(name: &str, clippy_toml: &str, deps: &str, files: &[(&str, &str)]) -> Findings {
    let krate = Scratch::new(name);
    let root = repo_root();
    let deps = deps.replace("{repo}", &root.to_string_lossy());
    krate.write(
        "Cargo.toml",
        &format!(
            "[package]\nname = \"{name}\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\n\
             [workspace]\n\n{deps}\n{}\n[lints]\nworkspace = true\n",
            workspace_lint_tables()
        ),
    );
    krate.write("clippy.toml", &repo_file(clippy_toml));
    for (rel, text) in files {
        krate.write(&format!("src/{rel}"), text);
    }
    let out = krate.cargo(&["clippy", "-q", "--message-format=json"]);
    let log = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        log.contains("\"reason\":\"build-finished\""),
        "clippy did not run: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    Findings(log)
}

/// `ci.sh`'s lock check on a scratch crate with `manifest` (a full
/// manifest, `{repo}` standing for the repository root): every package
/// must resolve offline and none may carry a `source =` line in the lock
/// file, as registry and git packages do.
pub fn lock_is_local(name: &str, manifest: &str) -> bool {
    let krate = Scratch::new(name);
    let manifest = manifest.replace("{repo}", &repo_root().to_string_lossy());
    krate.write("Cargo.toml", &format!("{manifest}\n[workspace]\n"));
    krate.write("src/lib.rs", "");
    let resolved = krate.cargo(&["metadata", "-q", "--format-version", "1"]).status.success();
    resolved
        && !std::fs::read_to_string(krate.0.join("Cargo.lock"))
            .expect("a resolved crate has a lock file")
            .lines()
            .any(|l| l.starts_with("source = "))
}

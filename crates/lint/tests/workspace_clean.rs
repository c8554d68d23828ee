//! The repository must sweep clean: plain `cargo test` enforces the RMI
//! discipline, not just the dedicated CI lint job. Any new violation is
//! either fixed or carries a justified `stapl-lint: allow(...)`.

use std::path::Path;

#[test]
fn repository_sweeps_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf();
    let files = stapl_lint::sweep_files(&root);
    assert!(files.len() > 50, "sweep looks truncated: {} files", files.len());
    let lints = stapl_lint::run(&root, &files);

    let rendered: Vec<String> = lints.findings.iter().map(|f| f.render()).collect();
    assert!(
        lints.findings.is_empty(),
        "workspace has unsuppressed lint findings:\n{}",
        rendered.join("\n")
    );

    let unused: Vec<String> = lints
        .suppressions
        .iter()
        .filter(|s| !s.used)
        .map(|s| format!("{}:{}", s.file, s.line))
        .collect();
    assert!(unused.is_empty(), "stale suppressions (remove them): {unused:?}");

    // Suppressions are only honest if they say why.
    let unjustified: Vec<String> = lints
        .suppressions
        .iter()
        .filter(|s| s.note.is_empty())
        .map(|s| format!("{}:{}", s.file, s.line))
        .collect();
    assert!(
        unjustified.is_empty(),
        "suppressions without a justification: {unjustified:?}"
    );
}

//! The repository must sweep clean: plain `cargo test` holds L2, not just
//! the dedicated CI lint job. A new finding is fixed, not suppressed.

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
    let findings = stapl_lint::run(&root, &files);
    let rendered: Vec<String> = findings.iter().map(|f| f.render()).collect();
    assert!(findings.is_empty(), "workspace has lint findings:\n{}", rendered.join("\n"));
}

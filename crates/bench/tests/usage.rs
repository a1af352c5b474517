//! `repro nosuch`: an unknown experiment is a usage error — exit 2, and
//! the message names every experiment there is. Each experiment is one
//! module under `src/bin/repro/` named after it, beside `main.rs` and the
//! shared `rig.rs`, so a module left out of the registry fails here.

use std::process::Command;

#[test]
fn unknown_experiment_exits_2_and_names_every_experiment() {
    let dir = std::env::temp_dir().join(format!("kml-usage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let run = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "nosuch"])
        .current_dir(&dir)
        .output()
        .expect("repro runs");
    let wrote_results = dir.join("results").exists();
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(run.status.code(), Some(2));
    assert!(!wrote_results, "a usage error ran an experiment");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("unknown experiment 'nosuch'"), "{stderr}");
    let listed: Vec<&str> = stderr
        .lines()
        .find_map(|l| l.strip_prefix("experiments: "))
        .unwrap_or_else(|| panic!("no experiment list in {stderr}"))
        .split_whitespace()
        .collect();

    let src = concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin/repro");
    let mut modules: Vec<String> = std::fs::read_dir(src)
        .expect("repro sources")
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            name.strip_suffix(".rs").map(str::to_owned)
        })
        .filter(|m| m != "main" && m != "rig")
        .collect();
    modules.push("all".into());
    let mut sorted = listed.clone();
    sorted.sort_unstable();
    modules.sort_unstable();
    assert_eq!(sorted, modules, "experiments listed vs experiment modules");
    assert_eq!(listed.last(), Some(&"all"));
}

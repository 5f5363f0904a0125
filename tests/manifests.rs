//! The manifests declare only what is used: every vendored stand-in is
//! patched in, declared as a workspace dependency and named by a member,
//! so one without a user fails here instead of lingering (and cargo's
//! "patch was not used in the crate graph" warning cannot appear).

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// The `key = value` lines of one table of a TOML file, by plain string
/// scanning: from its `[header]` line to the next table.
fn table(toml: &str, header: &str) -> Vec<(String, String)> {
    toml.lines()
        .skip_while(|line| line.trim() != header)
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter(|line| !line.trim_start().starts_with('#'))
        .filter_map(|line| line.split_once('='))
        .map(|(key, value)| (key.trim().to_string(), value.trim().to_string()))
        .collect()
}

#[test]
fn every_stand_in_is_patched_declared_and_used() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |path: &str| fs::read_to_string(root.join(path)).expect(path);
    let dirs = |path: &str| -> BTreeSet<String> {
        fs::read_dir(root.join(path))
            .expect(path)
            .map(|entry| entry.expect(path))
            .filter(|entry| entry.path().is_dir())
            .map(|entry| entry.file_name().to_string_lossy().into_owned())
            .collect()
    };

    let vendored = dirs("vendor/stubs");
    let patched: BTreeSet<String> = table(&read(".cargo/config.toml"), "[patch.crates-io]")
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    let declared: BTreeSet<String> = table(&read("Cargo.toml"), "[workspace.dependencies]")
        .into_iter()
        .filter(|(_, source)| !source.contains("path"))
        .map(|(name, _)| name)
        .collect();
    assert_eq!(patched, vendored, "[patch.crates-io] vs vendor/stubs/");
    assert_eq!(
        declared, vendored,
        "[workspace.dependencies] vs vendor/stubs/"
    );

    let mut manifests = vec![read("Cargo.toml")];
    manifests.extend(
        dirs("crates")
            .iter()
            .map(|member| read(&format!("crates/{member}/Cargo.toml"))),
    );
    for name in &vendored {
        let user = format!("{name}.workspace = true");
        assert!(
            manifests
                .iter()
                .any(|m| m.lines().any(|line| line.trim() == user)),
            "no member manifest depends on `{name}`"
        );
    }
}

//! `make_all | head`: a reader that leaves early must not make `make_all`
//! panic, and the `results/` files must still be written.

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_is_not_a_panic_and_results_are_still_written() {
    let dir = std::env::temp_dir().join(format!("make_all_pipe_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_make_all"))
        .arg("table1")
        .current_dir(&dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // Close the read end before the experiment renders: every write sees
    // a broken pipe.
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "make_all panicked: {stderr}");
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
    let written = std::fs::read_to_string(dir.join("results/table1.txt")).unwrap();
    assert!(!written.is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

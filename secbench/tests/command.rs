//! Runs the benchmark exactly as `BENCHMARK.json` declares it — an
//! offline release build from source, then one short run per workload
//! — and checks the output contract: the last line is the JSON result,
//! every declared metric is printed with its unit, all checks pass,
//! and results land only in the output directory.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits in the repository")
        .to_owned()
}

/// The `"name"` entries of one array of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let text =
        std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').unwrap()].to_owned())
        .collect()
}

fn command() -> Vec<String> {
    let text =
        std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("read BENCHMARK.json");
    let start = text.find("\"command\": [").expect("command present") + "\"command\": [".len();
    let list = &text[start..start + text[start..].find(']').unwrap()];
    list.split(',')
        .map(|s| s.trim().trim_matches('"').to_owned())
        .collect()
}

/// Runs the declared command from the repository root, building into a
/// target directory of the test's own.
fn run(args: &[&str], out: &Path) -> Output {
    let cmd = command();
    Command::new(&cmd[0])
        .args(&cmd[1..])
        .args(args)
        .args(["--out", out.to_str().unwrap()])
        .current_dir(repo_root())
        .env(
            "CARGO_TARGET_DIR",
            Path::new(env!("CARGO_TARGET_TMPDIR")).join("bench_build"),
        )
        .output()
        .expect("run the benchmark command")
}

fn result_line(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_owned()
}

#[test]
fn every_workload_builds_runs_and_passes_its_checks() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("command_out");
    let _ = std::fs::remove_dir_all(&out);
    let workloads = declared("workloads");
    assert_eq!(
        workloads,
        ["stack-solo", "stack-pair", "kv-pipeline", "durable-stack"]
    );
    let end_to_end = declared("end_to_end");
    for w in &workloads {
        let o = run(
            &[
                "--workload",
                w,
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            &out,
        );
        let line = result_line(&o);
        assert!(
            o.status.success(),
            "{w}: {}\n{}",
            line,
            String::from_utf8_lossy(&o.stderr)
        );
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{w}: {line}"
        );
        assert!(line.contains("\"failed\": 0,"), "{w}: {line}");
        for m in &end_to_end {
            assert!(
                line.contains(&format!("\"{m}\": {{\"value\": ")),
                "{w} lacks {m}: {line}"
            );
        }
        assert_eq!(
            line.matches("\"unit\"").count(),
            end_to_end.len(),
            "{w}: {line}"
        );
    }
    let mut files: Vec<String> = std::fs::read_dir(&out)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    let mut expected: Vec<String> = workloads
        .iter()
        .map(|w| format!("{w}-seed3-trace0.json"))
        .collect();
    expected.sort();
    assert_eq!(files, expected);
}

#[test]
fn a_traced_run_prints_every_per_layer_metric() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("trace_out");
    let per_layer = declared("per_layer");
    let o = run(
        &[
            "--workload",
            "kv-pipeline",
            "--seed",
            "4",
            "--seconds",
            "1",
            "--trace",
            "1",
        ],
        &out,
    );
    let line = result_line(&o);
    assert!(o.status.success(), "{line}");
    for m in &per_layer {
        assert!(
            line.contains(&format!("\"{m}\": {{\"value\": ")),
            "lacks {m}: {line}"
        );
    }
    assert_eq!(line.matches("\"unit\"").count(), per_layer.len());
}

#[test]
fn a_bad_invocation_fails_without_a_result() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("bad_out");
    let o = run(
        &[
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &out,
    );
    assert!(!o.status.success());
    assert!(!result_line(&o).contains("\"correct\""));
}

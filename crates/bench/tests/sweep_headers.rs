//! The `sweep` binary regenerates every figure CSV under the file name
//! and header of the committed drop in `results/`, so plotting scripts
//! and before/after diffs keep working across changes to the harness,
//! and writes the figures' `BENCH_*.json` drops.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn header(path: &Path) -> String {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    text.lines().next().unwrap_or_default().to_string()
}

#[test]
fn sweep_writes_every_figure_csv_with_the_committed_header() {
    let out = std::env::temp_dir().join(format!("sec_sweep_headers_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    std::fs::create_dir_all(&out).unwrap();
    // Run from the temp directory: `families` and `durable_bench` also
    // write their BENCH_*.json into the current directory.
    let status = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(
            "fig2 fig3 fig4 adaptive_k queue_bench map_bench families oversub shard_policy \
             recl_ablation table1 freezer_backoff latency durable_bench"
                .split_whitespace(),
        )
        .args("--duration-ms 5 --runs 1 --threads 1,2 --prefill 64 --csv".split(' '))
        .arg(&out)
        .current_dir(&out)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("sweep runs");
    assert!(status.success(), "sweep exited with {status}");

    let committed: PathBuf = [env!("CARGO_MANIFEST_DIR"), "..", "..", "results"]
        .iter()
        .collect();
    let mut csvs = 0;
    for entry in std::fs::read_dir(&out).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "csv") {
            let file = path.file_name().unwrap();
            assert_eq!(
                header(&path),
                header(&committed.join(file)),
                "{file:?}: header differs from the committed results/ copy"
            );
            csvs += 1;
        }
    }
    // 3 (fig2) + 2 (fig3) + 5 (fig4) + 3 (adaptive_k) + 3 (queue_bench)
    // + 4 (map_bench) + 1 (families) + 2 (oversub) + 2 (shard_policy)
    // + 1 each (recl_ablation, table1, freezer_backoff, latency,
    // durable_bench).
    assert_eq!(csvs, 30, "sweep wrote {csvs} CSVs");
    assert!(out.join("BENCH_families.json").is_file());
    assert!(out.join("BENCH_durable.json").is_file());
    let _ = std::fs::remove_dir_all(&out);
}

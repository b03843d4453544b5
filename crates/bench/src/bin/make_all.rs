//! Regenerate the paper's tables and figures, print them, and archive the
//! output under `results/` for EXPERIMENTS.md.
//!
//! ```sh
//! cargo run --release -p numa-bench --bin make_all [-- ID...]
//! ```
//!
//! With no ids every experiment runs; otherwise only the named ones, in
//! paper order (ids as in `numa_bench::EXPERIMENTS`: `table1`, `fig5`,
//! ...). An unknown id prints the valid ones and exits with status 2.

use std::fs;
use std::path::Path;

fn main() {
    let ids: Vec<String> = std::env::args_os()
        .skip(1)
        .map(|a| a.to_string_lossy().into_owned())
        .collect();
    let ids: Vec<&str> = ids.iter().map(String::as_str).collect();
    let exps = numa_bench::select(&ids).unwrap_or_else(|e| {
        eprintln!("make_all: {e}");
        std::process::exit(2);
    });
    let out_dir = Path::new("results");
    let _ = fs::create_dir_all(out_dir);
    for exp in exps {
        let rendered = exp.render();
        print!("{rendered}");
        let path = out_dir.join(format!("{}.txt", exp.id));
        if let Err(e) = fs::write(&path, &rendered) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
        if let Some(data) = &exp.data {
            let jpath = out_dir.join(format!("{}.json", exp.id));
            let pretty = numa_par::json::to_string_pretty(data);
            if let Err(e) = fs::write(&jpath, pretty) {
                eprintln!("warning: could not write {}: {e}", jpath.display());
            }
        }
    }
    println!("\nwrote per-experiment reports under results/");
}

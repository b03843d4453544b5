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
//! When stdout closes early (`make_all | head`) printing stops, but every
//! `results/` file is still written and the exit status is 0.

use std::fs;
use std::io::{self, Write as _};
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
    let mut stdout = Some(io::stdout().lock());
    for exp in exps {
        let rendered = exp.render();
        print_or_stop(&mut stdout, &rendered);
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
    print_or_stop(
        &mut stdout,
        "\nwrote per-experiment reports under results/\n",
    );
}

/// Write `text` to stdout until the first failed write, then stop
/// printing for good. A closed pipe is the reader leaving; anything else
/// is reported once on stderr.
fn print_or_stop(stdout: &mut Option<io::StdoutLock<'static>>, text: &str) {
    if let Some(out) = stdout {
        if let Err(e) = out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
            if e.kind() != io::ErrorKind::BrokenPipe {
                eprintln!("make_all: stdout: {e}");
            }
            *stdout = None;
        }
    }
}

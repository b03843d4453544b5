#![warn(missing_docs)]
//! # numio-cli
//!
//! The `iomodel` command-line tool — the paper's characterization software
//! (its `iomodel` module for `numademo`, §V-B) as a standalone binary over
//! the simulated testbed, the real host, or a recorded fixture.
//!
//! ```text
//! iomodel topo        [--preset dl585|fig1a..fig1d|intel4|amd8|blade32] [--dot]
//! iomodel stream      [--target N]
//! iomodel characterize [--target N] [--mode write|read] [--reps N] [--json] [--check]
//!                      [--device probe|ssd0|ssd0:<engine>-<access>]
//! iomodel record      --out fixture.jsonl [--target N] [--mode write|read] [--reps N]
//! iomodel classes     [--target N]
//! iomodel predict     --op rdma_read --mix 2:2,0:2 [--target N]
//! iomodel advise      --tasks N [--mode write|read] [--tolerance F]
//! iomodel sweep       --op tcp_send [--streams 1,2,4,8,16] [--size GB]
//! iomodel host        [--nodes N] [--reps N]
//! iomodel numastat
//! iomodel run         --jobfile job.fio [--faults plan.json]
//! iomodel simulate    --workload poisson:n=1000,rate=200,seed=42 [--check]
//! iomodel faults      demo [--seed N] [--check]
//! iomodel faults      validate --plan plan.json
//! iomodel faults      run --plan plan.json
//! iomodel serve       [--addr host:port] [--reps N] [--drift-threshold F] [--port-file p]
//!                     [--flight-recorder-size N] [--max-connections N]
//!                     [--workers N] [--queue-depth N]
//! iomodel client      [--addr host:port] [--check] [--stats] [--dump] [--batch N] [--shutdown]
//! ```
//!
//! Every subcommand accepts the global measurement-backend flag:
//!
//! ```text
//! --backend sim            the calibrated DL585 simulator (default;
//!                          --fabric dl585|split picks the machine)
//! --backend host[:N]       real memcpy on this machine, N NUMA nodes
//! --backend replay:<file>  a recorded JSONL probe fixture, replayed
//!                          bit-identically
//! ```
//!
//! `record` wraps whatever backend is selected in a recorder and writes
//! every probe it issues to a fixture; `characterize --check` re-runs the
//! characterization and fails unless the two models are bit-identical
//! (the CI replay-smoke gate). Commands that run *flows* rather than
//! probes (`run`, `sweep`, `sched`, `faults`, `numademo`, `stream`,
//! `netpath`, `predict`) need the simulator's fabric and report a typed
//! error on fabric-less backends.
//!
//! Every subcommand additionally accepts the global observability flags:
//!
//! ```text
//! --trace <path>     write the structured event stream as JSON lines
//! --metrics <path>   write a Prometheus text snapshot of all metrics
//! --profile          enable wall-clock self-profiling spans and append
//!                    the metrics table to the output
//! ```
//!
//! Traces and metrics are timestamped with *simulation* time, so a seeded
//! run writes byte-identical files every time (`--profile` adds wall-clock
//! `numio_op_seconds` series and is therefore not reproducible).

mod backend;
mod commands;
mod opts;

use opts::Opts;

/// Run the CLI against an argument list (excluding `argv[0]`); returns the
/// rendered output or a usage error.
///
/// Extracts the global observability flags (`--trace <path>`,
/// `--metrics <path>`, `--profile`) before subcommand parsing, runs the
/// command through [`dispatch`], then writes the requested exports.
pub fn run(args: &[String]) -> Result<String, String> {
    let Globals {
        rest: core_args,
        trace: trace_path,
        metrics: metrics_path,
        profile,
    } = extract_global(args)?;
    let obs = numa_obs::Obs::new();
    obs.set_profiling(profile);
    let mut out = dispatch(&core_args, &obs)?;
    if let Some(path) = trace_path {
        std::fs::write(&path, obs.jsonl()).map_err(|e| format!("--trace {path}: {e}"))?;
    }
    if let Some(path) = metrics_path {
        std::fs::write(&path, obs.prometheus()).map_err(|e| format!("--metrics {path}: {e}"))?;
    }
    if profile {
        out.push('\n');
        out.push_str(&obs.report());
    }
    Ok(out)
}

/// Run the CLI recording into a caller-supplied [`numa_obs::Obs`] handle.
/// Every invocation emits a `cli_invoked` event and bumps
/// `numio_cli_invocations_total{cmd=...}`, so even read-only subcommands
/// produce a non-empty trace.
pub fn dispatch(args: &[String], obs: &numa_obs::Obs) -> Result<String, String> {
    let mut it = args.iter();
    let cmd = it.next().ok_or_else(usage)?;
    let rest: Vec<String> = it.cloned().collect();
    obs.counter("numio_cli_invocations_total", &[("cmd", cmd.as_str())])
        .inc();
    obs.event("cli_invoked", 0.0, &[("cmd", cmd.as_str().into())]);
    let _span = obs.span("cli.command");
    if cmd == "faults" {
        // `faults` takes a positional action before the --key options.
        return commands::faults::cmd_faults(&rest, obs);
    }
    if cmd == "fleet" {
        // Likewise positional: `fleet <gen|place|compare> [--opts]`.
        return commands::fleet::cmd_fleet(&rest, obs);
    }
    let opts = Opts::parse(&rest)?;
    match cmd.as_str() {
        "topo" => commands::topo::cmd_topo(&opts),
        "stream" => commands::mem::cmd_stream(&opts),
        "characterize" => commands::characterize::cmd_characterize(&opts, obs),
        "record" => commands::characterize::cmd_record(&opts, obs),
        "classes" => commands::characterize::cmd_classes(&opts),
        "predict" => commands::predict::cmd_predict(&opts),
        "advise" => commands::predict::cmd_advise(&opts),
        "sweep" => commands::jobs::cmd_sweep(&opts),
        "host" => commands::host::cmd_host(&opts),
        "numastat" => commands::mem::cmd_numastat(&opts),
        "numademo" => commands::mem::cmd_numademo(&opts),
        "run" => commands::jobs::cmd_run(&opts, obs),
        "simulate" => commands::simulate::cmd_simulate(&opts, obs),
        "diff" => commands::diff::cmd_diff(&opts),
        "sched" => commands::sched::cmd_sched(&opts, obs),
        "latency" => commands::mem::cmd_latency(&opts),
        "probe" => commands::host::cmd_probe(&opts),
        "emit-script" => commands::host::cmd_emit_script(&opts),
        "import" => commands::host::cmd_import(&opts),
        "netpath" => commands::netpath::cmd_netpath(&opts),
        "atlas" => commands::characterize::cmd_atlas(&opts),
        "serve" => commands::serve::cmd_serve(&opts, obs),
        "client" => commands::serve::cmd_client(&opts),
        "sysfs" => commands::topo::cmd_sysfs(&opts),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(format!("unknown command '{other}'\n{}", usage())),
    }
}

/// The global observability flags, and the arguments left for the command.
struct Globals {
    rest: Vec<String>,
    trace: Option<String>,
    metrics: Option<String>,
    profile: bool,
}

/// Split the global observability flags out of the raw argument list so
/// they work uniformly on every subcommand.
fn extract_global(args: &[String]) -> Result<Globals, String> {
    let mut rest = Vec::with_capacity(args.len());
    let mut trace = None;
    let mut metrics = None;
    let mut profile = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            key @ ("--trace" | "--metrics") => {
                let v = args
                    .get(i + 1)
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("{key} requires a file path"))?;
                if key == "--trace" {
                    trace = Some(v.clone());
                } else {
                    metrics = Some(v.clone());
                }
                i += 2;
            }
            "--profile" => {
                profile = true;
                i += 1;
            }
            _ => {
                rest.push(args[i].clone());
                i += 1;
            }
        }
    }
    Ok(Globals {
        rest,
        trace,
        metrics,
        profile,
    })
}

fn usage() -> String {
    "usage: iomodel <topo|stream|characterize|record|classes|predict|advise|sweep|host|numastat|numademo|run|simulate|diff|sched|faults|fleet|latency|netpath|probe|emit-script|import|atlas|serve|client|sysfs> [options]\n\
     faults: iomodel faults demo [--seed N] [--check] | validate --plan p.json | run --plan p.json\n\
     fleet:  iomodel fleet gen [--hosts N] [--seed N] | place [--policy P] [--streams N] [--rounds N]\n\
             | compare [--hosts N] [--streams N] [--rounds N] [--seed N] [--check]\n\
     characterize: iomodel characterize [--device probe|ssd0|ssd0:<engine>-<access>] [--check]\n\
     run:    iomodel run --jobfile job.fio [--faults plan.json]\n\
     simulate: iomodel simulate --workload poisson:n=1000,rate=200,seed=42|pareto:...|batch:... [--check]\n\
     record: iomodel record --out fixture.jsonl [--target N] [--mode write|read]\n\
     serve:  iomodel serve [--addr host:port] [--reps N] [--drift-threshold F] [--port-file p]\n\
             [--flight-recorder-size N] [--max-connections N] [--workers N] [--queue-depth N]\n\
     client: iomodel client [--addr host:port] [--check] [--stats] [--dump] [--batch N] [--shutdown]\n\
     global flags: --backend sim|host[:N]|replay:<file> (measurement backend, default sim)\n\
                   --trace <path> (JSONL events)  --metrics <path> (Prometheus snapshot)  --profile (wall-clock spans)\n\
     run `iomodel help` for the full option list (see crate docs)"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_topology::NodeId;

    fn run_str(args: &[&str]) -> Result<String, String> {
        run(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn no_args_is_usage_error() {
        assert!(run(&[]).is_err());
    }

    #[test]
    fn unknown_command_reports() {
        let e = run_str(&["bogus"]).unwrap_err();
        assert!(e.contains("unknown command"));
    }

    #[test]
    fn help_prints_usage() {
        assert!(run_str(&["help"]).unwrap().contains("usage"));
    }

    #[test]
    fn fleet_gen_lists_every_host() {
        let out = run_str(&["fleet", "gen", "--hosts", "3", "--seed", "7"]).unwrap();
        assert!(out.contains("fleet (seed 7): 3 hosts"), "{out}");
        assert!(out.contains("host 00"), "{out}");
        assert!(out.contains("host 02"), "{out}");
        assert!(out.contains("best class"), "{out}");
    }

    #[test]
    fn fleet_place_reports_and_is_deterministic() {
        let args = [
            "fleet",
            "place",
            "--hosts",
            "2",
            "--streams",
            "8",
            "--policy",
            "adaptive",
        ];
        let a = run_str(&args).unwrap();
        let b = run_str(&args).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("adaptive"), "{a}");
        assert!(a.contains("jain"), "{a}");
        assert!(a.contains("fct digest"), "{a}");
    }

    #[test]
    fn fleet_compare_check_gates_bit_identity() {
        let out = run_str(&[
            "fleet",
            "compare",
            "--hosts",
            "2",
            "--streams",
            "8",
            "--check",
        ])
        .unwrap();
        assert!(out.contains("class-ranked"), "{out}");
        assert!(out.contains("bandwidth-aware"), "{out}");
        assert!(out.contains("adaptive"), "{out}");
        assert!(out.contains("best aggregate:"), "{out}");
        assert!(out.contains("fleet compare check OK"), "{out}");
        // Default action is compare.
        let bare = run_str(&["fleet", "--hosts", "2", "--streams", "8"]).unwrap();
        assert!(bare.contains("best aggregate:"), "{bare}");
    }

    #[test]
    fn fleet_rejects_bad_arguments() {
        assert!(run_str(&["fleet", "gen", "--hosts", "0"]).is_err());
        assert!(run_str(&["fleet", "gen", "--hosts", "65"]).is_err());
        assert!(run_str(&["fleet", "place", "--policy", "bogus"]).is_err());
        assert!(run_str(&["fleet", "teleport"])
            .unwrap_err()
            .contains("unknown action"));
    }

    #[test]
    fn fleet_place_caps_streams_before_generating() {
        let e = run_str(&["fleet", "place", "--streams", "4097"]).unwrap_err();
        assert_eq!(e, "streams must be in 1..=4096, got 4097");
        let e = run_str(&["fleet", "gen", "--hosts", "65"]).unwrap_err();
        assert_eq!(e, "hosts must be in 1..=64, got 65");
    }

    #[test]
    fn topo_lists_hops_and_devices() {
        let out = run_str(&["topo"]).unwrap();
        assert!(out.contains("dl585-g7"));
        assert!(out.contains("hop distances"));
        assert!(out.contains("SLIT"));
    }

    #[test]
    fn topo_dot_and_presets() {
        let out = run_str(&["topo", "--preset", "fig1b", "--dot"]).unwrap();
        assert!(out.starts_with("graph"));
        assert!(run_str(&["topo", "--preset", "nope"]).is_err());
    }

    #[test]
    fn stream_prints_matrix_and_models() {
        let out = run_str(&["stream"]).unwrap();
        assert!(out.contains("CPU-centric model of node 7"));
        assert!(out.contains("Memory-centric"));
        assert!(out.contains("21.")); // the 21.34 anchor, modulo noise
    }

    #[test]
    fn characterize_text_and_json() {
        let out = run_str(&["characterize", "--reps", "5"]).unwrap();
        assert!(out.contains("class 1: nodes {6, 7}"));
        let json = run_str(&["characterize", "--reps", "5", "--json"]).unwrap();
        let model = numio_core::IoPerfModel::from_json(&json).unwrap();
        assert_eq!(model.target, NodeId(7));
    }

    #[test]
    fn characterize_split_fabric_targets_node3() {
        let out = run_str(&[
            "characterize",
            "--reps",
            "3",
            "--fabric",
            "split",
            "--target",
            "3",
        ])
        .unwrap();
        assert!(out.contains("target node 3"));
        assert!(out.contains("class 1: nodes {2, 3}"), "{out}");
        assert!(run_str(&["characterize", "--fabric", "moon"]).is_err());
    }

    #[test]
    fn characterize_read_mode() {
        let out = run_str(&["characterize", "--reps", "5", "--mode", "read"]).unwrap();
        assert!(out.contains("device read"));
        assert!(out.contains("class 4"), "{out}");
    }

    #[test]
    fn characterize_check_verifies_sim_determinism() {
        let out = run_str(&["characterize", "--reps", "3", "--check"]).unwrap();
        assert!(out.contains("characterize check OK"), "{out}");
        assert!(out.contains("bit-identical"), "{out}");
        assert!(out.contains("class partition matches Table IV"), "{out}");
    }

    #[test]
    fn characterize_ssd_device_renders_the_storage_tier() {
        let out = run_str(&["characterize", "--reps", "5", "--device", "ssd0"]).unwrap();
        // Same partition shape as Table IV, at SSD-ceiling levels.
        assert!(out.contains("class 1: nodes {6, 7}"), "{out}");
        assert!(out.contains("ssd0:libaio16-direct"), "{out}");
        let json = run_str(&["characterize", "--reps", "5", "--device", "ssd0", "--json"]).unwrap();
        let model = numio_core::IoPerfModel::from_json(&json).unwrap();
        assert!(
            model.platform.ends_with("ssd0:libaio16-direct"),
            "{}",
            model.platform
        );
        // An explicit operating point scales the whole table down.
        let slow = run_str(&[
            "characterize",
            "--reps",
            "5",
            "--device",
            "ssd0:sync-buffered",
            "--json",
        ])
        .unwrap();
        let slow = numio_core::IoPerfModel::from_json(&slow).unwrap();
        assert!(
            slow.means().iter().zip(model.means()).all(|(s, f)| *s < f),
            "sync+buffered must sit below libaio+direct everywhere"
        );
        // `--device probe` is the default memcpy path.
        let probe = run_str(&["characterize", "--reps", "5", "--device", "probe"]).unwrap();
        let default = run_str(&["characterize", "--reps", "5"]).unwrap();
        assert_eq!(probe, default);
    }

    #[test]
    fn characterize_ssd_check_gates_the_storage_partition() {
        let out = run_str(&["characterize", "--reps", "3", "--device", "ssd0", "--check"]).unwrap();
        assert!(out.contains("characterize check OK"), "{out}");
        assert!(out.contains("device ssd0:libaio16-direct"), "{out}");
        assert!(out.contains("bit-identical"), "{out}");
        assert!(out.contains("storage class partition matches"), "{out}");
    }

    #[test]
    fn characterize_device_errors_are_typed() {
        let e = run_str(&["characterize", "--device", "ssd9"]).unwrap_err();
        assert!(e.contains("--device must be"), "{e}");
        // Storage needs a fabric: host backends carry none.
        let e = run_str(&["characterize", "--backend", "host:2", "--device", "ssd0"]).unwrap_err();
        assert!(e.contains("exposes no fabric"), "{e}");
    }

    #[test]
    fn record_then_replay_through_the_cli() {
        let dir = std::env::temp_dir().join("numio-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let fix = dir.join("recorded.jsonl");
        let out = run_str(&[
            "record",
            "--out",
            fix.to_str().unwrap(),
            "--reps",
            "3",
            "--target",
            "7",
        ])
        .unwrap();
        assert!(out.contains("recorded 8 probes (1 models)"), "{out}");
        let spec = format!("replay:{}", fix.display());
        // Replay renders exactly what the live simulator run rendered.
        let live = run_str(&["characterize", "--reps", "3"]).unwrap();
        let replayed = run_str(&["characterize", "--backend", &spec, "--reps", "3"]).unwrap();
        assert_eq!(
            live, replayed,
            "replay must be bit-identical to the live run"
        );
        let checked =
            run_str(&["characterize", "--backend", &spec, "--reps", "3", "--check"]).unwrap();
        assert!(checked.contains("characterize check OK"), "{checked}");
        assert!(checked.contains("backend sim:dl585-g7"), "{checked}");
        // A probe the fixture does not cover is a typed error, not a panic.
        let e = run_str(&["characterize", "--backend", &spec, "--reps", "4"]).unwrap_err();
        assert!(e.contains("no recorded probe"), "{e}");
    }

    #[test]
    fn shipped_fixture_replays_with_check() {
        let fixture = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/fixtures/dl585.jsonl"
        );
        let spec = format!("replay:{fixture}");
        let out = run_str(&["characterize", "--backend", &spec, "--check"]).unwrap();
        assert!(out.contains("characterize check OK"), "{out}");
        assert!(out.contains("class partition matches Table IV"), "{out}");
    }

    #[test]
    fn backend_flag_rejects_unknown_specs() {
        let e = run_str(&["characterize", "--backend", "quantum"]).unwrap_err();
        assert!(e.contains("unknown backend"), "{e}");
        let e = run_str(&["characterize", "--backend", "replay:/no/such.jsonl"]).unwrap_err();
        assert!(e.contains("/no/such.jsonl"), "{e}");
    }

    #[test]
    fn fabricless_backends_error_clearly() {
        // Flow-running commands need the simulator fabric.
        let e = run_str(&["sweep", "--backend", "host:2"]).unwrap_err();
        assert!(e.contains("exposes no simulator fabric"), "{e}");
        let e = run_str(&["sched", "--backend", "host:2"]).unwrap_err();
        assert!(e.contains("no fabric to schedule over"), "{e}");
        // Probe-running commands need a topology.
        let e = run_str(&["characterize", "--backend", "host:2", "--reps", "1"]).unwrap_err();
        assert!(e.contains("carries no topology"), "{e}");
        // record without a destination is a usage error.
        assert!(run_str(&["record", "--reps", "1"]).is_err());
    }

    /// `predict` characterizes through the backend, then runs its jobs on
    /// the backend's fabric: a replay that covers both directions gets as
    /// far as the jobs and fails there with `fabric_of`'s message.
    #[test]
    fn predict_on_a_fabricless_replay_names_the_missing_fabric() {
        let dir = std::env::temp_dir().join("numio-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let fix = dir.join("full-host.jsonl");
        let out = run_str(&["record", "--out", fix.to_str().unwrap()]).unwrap();
        assert!(out.contains("recorded 128 probes (16 models)"), "{out}");
        let spec = format!("replay:{}", fix.display());
        for op in ["rdma_write", "rdma_read"] {
            let e = run_str(&[
                "predict",
                "--backend",
                &spec,
                "--op",
                op,
                "--mix",
                "3:2,6:1",
            ])
            .unwrap_err();
            assert_eq!(
                e,
                format!("backend '{spec}' exposes no simulator fabric; this command needs --backend sim"),
                "{op}"
            );
        }
    }

    #[test]
    fn record_and_replay_emit_probe_events() {
        let dir = std::env::temp_dir().join("numio-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let fix = dir.join("events.jsonl");
        let obs = numa_obs::Obs::new();
        let args: Vec<String> = [
            "record",
            "--out",
            fix.to_str().unwrap(),
            "--reps",
            "2",
            "--target",
            "7",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        dispatch(&args, &obs).unwrap();
        assert!(
            obs.jsonl().contains("\"ev\":\"probe_recorded\""),
            "{}",
            obs.jsonl()
        );
        assert_eq!(
            obs.counter("numio_probes_recorded_total", &[("backend", "sim")])
                .get(),
            8
        );
        let obs2 = numa_obs::Obs::new();
        let spec = format!("replay:{}", fix.display());
        let args: Vec<String> = ["characterize", "--backend", &spec, "--reps", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        dispatch(&args, &obs2).unwrap();
        assert!(
            obs2.jsonl().contains("\"ev\":\"probe_replayed\""),
            "{}",
            obs2.jsonl()
        );
        assert_eq!(
            obs2.counter("numio_probes_replayed_total", &[("backend", "replay")])
                .get(),
            8
        );
        assert_eq!(
            obs2.counter(
                "numio_probes_total",
                &[("node", "N7"), ("backend", "replay")]
            )
            .get(),
            2
        );
    }

    #[test]
    fn classes_prints_both_tables() {
        let out = run_str(&["classes"]).unwrap();
        assert!(out.contains("Table IV"));
        assert!(out.contains("Table V"));
        assert!(out.contains("RDMA_WRITE"));
        assert!(out.contains("SSD read"));
    }

    #[test]
    fn predict_output_is_pinned_byte_for_byte() {
        let read = "workload: RdmaRead mix 2:2,0:2 against node 7
  term 0: node 2 x2 -> class 2 @ 22.000 Gbps, share 0.50
  term 1: node 0 x2 -> class 3 @ 18.324 Gbps, share 0.50
predicted (Eq.1): 20.162 Gbps
measured  (sim) : 19.416 Gbps
relative error  : 3.8%
";
        let write = "workload: RdmaWrite mix 2:2,6:2 against node 7
  term 0: node 2 x2 -> class 3 @ 17.075 Gbps, share 0.50
  term 1: node 6 x2 -> class 1 @ 23.300 Gbps, share 0.50
predicted (Eq.1): 20.187 Gbps
measured  (sim) : 19.594 Gbps
relative error  : 3.0%
";
        for (op, mix, want) in [
            ("rdma_read", "2:2,0:2", read),
            ("rdma_write", "2:2,6:2", write),
        ] {
            let out = run_str(&["predict", "--op", op, "--mix", mix]).unwrap();
            assert_eq!(out, want, "{op} {mix}");
        }
    }

    #[test]
    fn predict_requires_mix() {
        assert!(run_str(&["predict", "--op", "rdma_read"]).is_err());
        assert!(run_str(&["predict", "--op", "rdma_read", "--mix", "2-3"]).is_err());
    }

    #[test]
    fn predict_mix_node_out_of_range_is_an_error_naming_it() {
        let err = run_str(&["predict", "--mix", "99:2"]).unwrap_err();
        assert!(
            err.contains("node 99") && err.contains("has 8 nodes"),
            "{err}"
        );
        let err = run_str(&["predict", "--mix", "2:2,8:1"]).unwrap_err();
        assert!(err.contains("node 8"), "{err}");
    }

    #[test]
    fn counts_past_the_stream_bound_are_typed_errors() {
        // Each stops at the stream bound before a run: the first mix's
        // total wraps a u32 to 0, and the rest would lower one flow per
        // stream until allocation fails (a job file with or without a
        // fault plan included).
        let dir = std::env::temp_dir().join("numio-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let (job, plan) = (dir.join("huge.fio"), dir.join("huge_plan.json"));
        std::fs::write(
            &job,
            "[j]\nioengine=rdma\ncpunodebind=2\nnumjobs=100000000\n",
        )
        .unwrap();
        let fault = r#"{"kind": "link_degrade", "from": 6, "to": 7, "factor": 0.5, "start_s": 0}"#;
        std::fs::write(&plan, format!(r#"{{"seed": 0, "faults": [{fault}]}}"#)).unwrap();
        let (job, plan) = (job.to_str().unwrap(), plan.to_str().unwrap());
        for args in [
            &["predict", "--mix", "2:4294967295,0:1"][..],
            &["predict", "--mix", "2:100000000"],
            &["run", "--jobfile", job],
            &["run", "--jobfile", job, "--faults", plan],
        ] {
            let err = run_str(args).unwrap_err();
            assert!(
                err.ends_with("streams; at most 4096 may run"),
                "{args:?}: {err}"
            );
        }
    }

    #[test]
    fn predict_zero_count_is_a_bad_count() {
        for mix in ["0:0", "2:2,0:0"] {
            let err = run_str(&["predict", "--mix", mix]).unwrap_err();
            assert_eq!(err, "bad count '0'");
        }
    }

    #[test]
    fn advise_spreads_load() {
        let out = run_str(&["advise", "--tasks", "6"]).unwrap();
        assert!(out.contains("advised placement"));
        assert!(out.contains("max per-node load"));
    }

    #[test]
    fn sweep_renders_table() {
        let out = run_str(&[
            "sweep",
            "--op",
            "rdma_write",
            "--streams",
            "1,2",
            "--size",
            "2",
        ])
        .unwrap();
        assert!(out.contains("RdmaWrite"));
        assert!(out.contains("node7"));
    }

    #[test]
    fn host_runs_quickly_with_small_reps() {
        let out = run_str(&["host", "--nodes", "4", "--reps", "1"]).unwrap();
        assert!(out.contains("real-host memcpy probe"));
        assert!(run_str(&["host", "--nodes", "5"]).is_err());
    }

    #[test]
    fn numastat_shows_node0_drain() {
        let out = run_str(&["numastat"]).unwrap();
        assert!(out.contains("node 0 free: 1440 MB"));
        assert!(out.contains("numa_hit"));
    }

    #[test]
    fn atlas_json_is_a_loadable_atlas() {
        let out = run_str(&["atlas", "--reps", "2", "--json"]).unwrap();
        let atlas = numio_core::Atlas::from_json(&out).unwrap();
        assert_eq!(atlas.models().len(), 16);
    }

    #[test]
    fn atlas_covers_every_node_both_ways() {
        let out = run_str(&["atlas", "--reps", "2"]).unwrap();
        assert!(out.contains("16 models"));
        for n in 0..8 {
            assert!(out.contains(&format!("node {n} write:")), "{out}");
            assert!(out.contains(&format!("node {n} read :")), "{out}");
        }
    }

    #[test]
    fn sysfs_discovery_command_runs_when_sysfs_exists() {
        if std::path::Path::new("/sys/devices/system/node").exists() {
            let out = run_str(&["sysfs"]).unwrap();
            assert!(out.contains("discovered from"));
            assert!(out.contains("SLIT"));
        }
        assert!(run_str(&["sysfs", "--root", "/no/such/dir"]).is_err());
    }

    #[test]
    fn numademo_renders_grid() {
        let out = run_str(&["numademo", "--cpu", "3", "--remote", "7"]).unwrap();
        assert!(out.contains("memset"));
        assert!(out.contains("interleave"));
    }

    #[test]
    fn run_executes_a_jobfile() {
        let dir = std::env::temp_dir().join("numio-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("job.fio");
        std::fs::write(
            &path,
            "[j]\nioengine=rdma\nverb=write\ncpunodebind=3\nsize=4g\n",
        )
        .unwrap();
        let out = run_str(&["run", "--jobfile", path.to_str().unwrap()]).unwrap();
        assert!(out.contains("TOTAL"), "{out}");
        assert!(out.contains("17.0"), "node 3 class level: {out}");
        assert!(run_str(&["run", "--jobfile", "/no/such/file"]).is_err());
        assert!(run_str(&["run"]).is_err());
    }

    #[test]
    fn run_executes_a_mixed_nic_and_ssd_jobfile() {
        let dir = std::env::temp_dir().join("numio-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mixed.fio");
        std::fs::write(
            &path,
            "[net]\nioengine=rdma\nverb=write\ncpunodebind=6\nsize=4g\n\n\
             [disk]\nioengine=libaio\nrw=write\niodepth=16\ndirect=1\ncpunodebind=7\nsize=4g\n",
        )
        .unwrap();
        let a = run_str(&["run", "--jobfile", path.to_str().unwrap()]).unwrap();
        assert!(a.contains("TOTAL"), "{a}");
        assert!(a.contains("net:"), "{a}");
        assert!(a.contains("disk:"), "{a}");
        assert!(a.contains("Ssd"), "{a}");
        // Seeded contention run: bit-identical on rerun.
        let b = run_str(&["run", "--jobfile", path.to_str().unwrap()]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn simulate_runs_workloads_and_checks_determinism() {
        let out = run_str(&["simulate", "--workload", "poisson:n=50,rate=100,seed=7"]).unwrap();
        assert!(out.contains("50 flows"), "{out}");
        assert!(out.contains("p99"), "{out}");
        assert!(out.contains("fct digest:"), "{out}");
        // Bit-identical reruns: the digest line matches across invocations.
        let again = run_str(&["simulate", "--workload", "poisson:n=50,rate=100,seed=7"]).unwrap();
        assert_eq!(out, again);
        let checked = run_str(&[
            "simulate",
            "--workload",
            "pareto:n=20,alpha=1.5,seed=3",
            "--check",
        ])
        .unwrap();
        assert!(checked.contains("simulate check OK"), "{checked}");
        assert!(checked.contains("bit-identical"), "{checked}");
        // Usage and parse errors are typed strings, not panics.
        assert!(run_str(&["simulate"]).is_err());
        assert!(run_str(&["simulate", "--workload", "burst:n=3"]).is_err());
        assert!(run_str(&[
            "simulate",
            "--workload",
            "poisson:n=1",
            "--backend",
            "host:2"
        ])
        .is_err());
    }

    #[test]
    fn simulate_rejects_arrivals_that_overflow() {
        // A rate this small makes the first gap `inf`: a typed error, not
        // a panic in the flow builder.
        let err = run_str(&["simulate", "--workload", "poisson:n=3,rate=1e-320"]).unwrap_err();
        assert!(err.contains("non-finite"), "{err}");
    }

    #[test]
    fn faults_demo_renders_and_is_deterministic() {
        let a = run_str(&["faults", "demo", "--seed", "11"]).unwrap();
        let b = run_str(&["faults", "demo", "--seed", "11"]).unwrap();
        assert_eq!(a, b, "seeded demo must render bit-identically");
        assert!(a.contains("fault plan (seed 11)"), "{a}");
        assert!(a.contains("BASELINE"));
        assert!(a.contains("FAULTED"));
        assert!(a.contains("degradation:"));
        // Bare `faults` defaults to the demo action.
        assert!(run_str(&["faults", "--seed", "11"])
            .unwrap()
            .contains("FAULTED"));
    }

    #[test]
    fn faults_demo_check_is_the_smoke_test() {
        let out = run_str(&["faults", "demo", "--check"]).unwrap();
        assert!(out.contains("fault demo OK"), "{out}");
        assert!(out.contains("deterministic"), "{out}");
    }

    #[test]
    fn faults_validate_and_run_accept_a_plan_file() {
        let dir = std::env::temp_dir().join("numio-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plan.json");
        std::fs::write(&path, numa_faults::FaultPlan::demo(5).to_json()).unwrap();
        let ok = run_str(&["faults", "validate", "--plan", path.to_str().unwrap()]).unwrap();
        assert!(ok.contains("OK (2 faults, seed 5)"), "{ok}");
        let run = run_str(&["faults", "run", "--plan", path.to_str().unwrap()]).unwrap();
        assert!(run.contains("degradation:"), "{run}");
        // Malformed plan files are reported with the offending path.
        let bad = dir.join("bad.json");
        std::fs::write(
            &bad,
            "{\"seed\": 1, \"faults\": [{\"kind\": \"gremlins\"}]}",
        )
        .unwrap();
        let e = run_str(&["faults", "validate", "--plan", bad.to_str().unwrap()]).unwrap_err();
        assert!(e.contains("malformed fault plan"), "{e}");
        assert!(run_str(&["faults", "validate"]).is_err());
        assert!(run_str(&["faults", "sabotage"]).is_err());
    }

    #[test]
    fn run_with_faults_degrades_the_jobfile_total() {
        let dir = std::env::temp_dir().join("numio-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let job = dir.join("faulted.fio");
        std::fs::write(
            &job,
            "[j]\nioengine=rdma\nverb=write\ncpunodebind=6\nsize=4g\n",
        )
        .unwrap();
        let plan = dir.join("halve.json");
        std::fs::write(
            &plan,
            "{\"seed\": 0, \"faults\": [{\"kind\": \"link_degrade\", \"from\": 6, \"to\": 7, \"factor\": 0.1, \"start_s\": 0.0}]}",
        )
        .unwrap();
        let healthy = run_str(&["run", "--jobfile", job.to_str().unwrap()]).unwrap();
        let faulted = run_str(&[
            "run",
            "--jobfile",
            job.to_str().unwrap(),
            "--faults",
            plan.to_str().unwrap(),
        ])
        .unwrap();
        let total = |s: &str| -> f64 {
            s.lines()
                .find(|l| l.starts_with("TOTAL:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .unwrap()
                .parse()
                .unwrap()
        };
        assert!(
            total(&faulted) < total(&healthy) * 0.5,
            "faulted {faulted} vs healthy {healthy}"
        );
        assert!(run_str(&[
            "run",
            "--jobfile",
            job.to_str().unwrap(),
            "--faults",
            "/no/plan"
        ])
        .is_err());
    }

    #[test]
    fn diff_detects_stability() {
        let dir = std::env::temp_dir().join("numio-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.json");
        let model = run_str(&["characterize", "--reps", "3", "--json"]).unwrap();
        std::fs::write(&a, &model).unwrap();
        let out = run_str(&[
            "diff",
            "--old",
            a.to_str().unwrap(),
            "--new",
            a.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("STABLE"));
        assert!(run_str(&["diff", "--old", a.to_str().unwrap()]).is_err());
    }

    #[test]
    fn global_trace_and_metrics_flags_write_files() {
        let dir = std::env::temp_dir().join("numio-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("sched_trace.jsonl");
        let metrics = dir.join("sched_metrics.prom");
        let out = run_str(&[
            "sched",
            "--tasks",
            "4",
            "--burst",
            "--seed",
            "7",
            "--trace",
            trace.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("best mean latency"));
        let t = std::fs::read_to_string(&trace).unwrap();
        assert!(t.contains("\"ev\":\"cli_invoked\""), "{t}");
        assert!(t.contains("\"ev\":\"alloc_round\""), "{t}");
        assert!(t.contains("\"ev\":\"task_finished\""), "{t}");
        let m = std::fs::read_to_string(&metrics).unwrap();
        assert!(
            m.contains("numio_alloc_rounds_total{component=\"sched\"}"),
            "{m}"
        );
        assert!(
            m.contains("numio_flow_completions_total{component=\"sched\"}"),
            "{m}"
        );
        assert!(m.contains("numio_episode_latency_seconds_bucket"), "{m}");
        // No wall-clock series without --profile: exports stay reproducible.
        assert!(!m.contains("numio_op_seconds"), "{m}");
    }

    #[test]
    fn seeded_runs_write_identical_traces() {
        let dir = std::env::temp_dir().join("numio-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let go = |name: &str| {
            let trace = dir.join(name);
            run_str(&[
                "sched",
                "--tasks",
                "4",
                "--seed",
                "9",
                "--trace",
                trace.to_str().unwrap(),
            ])
            .unwrap();
            std::fs::read(&trace).unwrap()
        };
        let a = go("det_a.jsonl");
        let b = go("det_b.jsonl");
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn every_subcommand_produces_a_nonempty_trace() {
        let obs = numa_obs::Obs::new();
        let args: Vec<String> = ["topo"].iter().map(|s| s.to_string()).collect();
        dispatch(&args, &obs).unwrap();
        assert!(obs.jsonl().contains("\"cmd\":\"topo\""));
        assert_eq!(
            obs.counter("numio_cli_invocations_total", &[("cmd", "topo")])
                .get(),
            1
        );
    }

    #[test]
    fn characterize_records_probe_metrics() {
        let obs = numa_obs::Obs::new();
        let args: Vec<String> = ["characterize", "--reps", "3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        dispatch(&args, &obs).unwrap();
        assert_eq!(
            obs.counter("numio_probes_total", &[("node", "N7"), ("backend", "sim")])
                .get(),
            3
        );
        assert!(obs.prometheus().contains("numio_probe_gbps_bucket"));
    }

    #[test]
    fn profile_flag_appends_report_and_times_ops() {
        let out = run_str(&["sched", "--tasks", "3", "--burst", "--profile"]).unwrap();
        assert!(out.contains("numio_op_seconds"), "{out}");
        assert!(out.contains("sched.alloc_round"), "{out}");
    }

    #[test]
    fn trace_flag_requires_a_path() {
        let e = run_str(&["topo", "--trace"]).unwrap_err();
        assert!(e.contains("requires a file path"), "{e}");
    }

    #[test]
    fn sched_compares_policies() {
        let out = run_str(&["sched", "--tasks", "4", "--burst", "--mix", "ingest"]).unwrap();
        assert!(out.contains("local-only"));
        assert!(out.contains("model-driven"));
        assert!(out.contains("best mean latency"));
        assert!(run_str(&["sched", "--mix", "chaos"]).is_err());
    }

    #[test]
    fn probe_emits_csv() {
        let out = run_str(&["probe", "--node", "3", "--reps", "2", "--mib", "1"]).unwrap();
        let lines: Vec<&str> = out.trim().lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("3,"));
        let v: f64 = lines[0].split(',').nth(1).unwrap().parse().unwrap();
        assert!(v > 0.0);
    }

    #[test]
    fn emit_script_wraps_numactl() {
        let out = run_str(&["emit-script", "--target", "7", "--nodes", "8"]).unwrap();
        assert!(out.starts_with("#!/bin/sh"));
        assert_eq!(out.matches("numactl --cpunodebind=7").count(), 8);
        assert!(out.contains("--membind=0"));
        assert!(out.contains("iomodel import"));
    }

    #[test]
    fn import_round_trips_through_csv() {
        // Fabricate a CSV with the Table IV write-direction means.
        let means = [42.9, 44.6, 27.3, 26.0, 46.5, 45.0, 46.5, 53.5];
        let mut csv = String::from("# node,gbps\n");
        for (n, m) in means.iter().enumerate() {
            for k in 0..3 {
                csv.push_str(&format!("{n},{}\n", m + k as f64 * 0.01));
            }
        }
        let dir = std::env::temp_dir().join("numio-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("probes.csv");
        std::fs::write(&path, csv).unwrap();
        let out = run_str(&["import", "--csv", path.to_str().unwrap(), "--target", "7"]).unwrap();
        assert!(out.contains("class 1: nodes {6, 7}"), "{out}");
        assert!(out.contains("class 3: nodes {2, 3}"), "{out}");
        // Missing nodes are reported.
        std::fs::write(&path, "0,10.0\n").unwrap();
        let e = run_str(&["import", "--csv", path.to_str().unwrap()]).unwrap_err();
        assert!(e.contains("no samples"), "{e}");
    }

    #[test]
    fn import_rejects_non_finite_and_negative_samples_naming_the_line() {
        let dir = std::env::temp_dir().join("numio-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad-samples.csv");
        for bad in ["NaN", "inf", "-inf", "-2.5"] {
            std::fs::write(&path, format!("# node,gbps\n0,10.0\n3,{bad}\n")).unwrap();
            let e = run_str(&["import", "--csv", path.to_str().unwrap()]).unwrap_err();
            assert!(e.contains("bad-samples.csv:3:"), "{bad}: {e}");
            assert!(
                e.contains("not a finite, non-negative number"),
                "{bad}: {e}"
            );
        }
    }

    #[test]
    fn latency_staircase_renders() {
        let out = run_str(&["latency", "--cpu", "2"]).unwrap();
        assert!(out.contains("working set"));
        assert!(out.contains("MiB"));
        assert!(out.contains("NUMA factor"));
    }

    #[test]
    fn netpath_matrix_renders() {
        let out = run_str(&["netpath", "--op", "tcp_send"]).unwrap();
        assert!(out.contains("end-to-end TcpSend"));
        assert!(out.contains("window/RTT"));
        let wan = run_str(&["netpath", "--op", "rdma_write", "--rtt", "50"]).unwrap();
        assert!(wan.contains("0.67"), "window-limited WAN: {wan}");
    }

    #[test]
    fn serve_and_client_smoke_over_loopback() {
        let dir = std::env::temp_dir().join("numio-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let port_file = dir.join("serve.addr");
        let _ = std::fs::remove_file(&port_file);
        let pf = port_file.to_str().unwrap().to_string();
        // `serve` blocks until a wire shutdown; run it on its own thread
        // with an OS-assigned port published through --port-file.
        let server = std::thread::spawn({
            let pf = pf.clone();
            move || {
                run_str(&[
                    "serve",
                    "--addr",
                    "127.0.0.1:0",
                    "--reps",
                    "2",
                    "--workers",
                    "2",
                    "--queue-depth",
                    "8",
                    "--port-file",
                    &pf,
                ])
            }
        });
        let mut addr = String::new();
        for _ in 0..50 {
            if let Ok(a) = std::fs::read_to_string(&port_file) {
                if !a.is_empty() {
                    addr = a;
                    break;
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
        assert!(!addr.is_empty(), "serve never published its address");
        let out = run_str(&["client", "--addr", &addr, "--check"]).unwrap();
        assert!(out.contains("classify OK"), "{out}");
        assert!(out.contains("Table IV"), "{out}");
        assert!(out.contains("cache hit"), "{out}");
        assert!(out.contains("serve check OK"), "{out}");
        // One predict_batch round trip, gated against sequential predicts.
        let out = run_str(&["client", "--addr", &addr, "--batch", "32"]).unwrap();
        assert!(out.contains("predict_batch OK: 32 mixes"), "{out}");
        // One-shot health view + flight-recorder dump, then shut down.
        let out = run_str(&["client", "--addr", &addr, "--stats", "--dump", "--shutdown"]).unwrap();
        assert!(out.contains("requests"), "{out}");
        assert!(out.contains("hits"), "{out}");
        assert!(out.contains("p99"), "{out}");
        assert!(out.contains("flight recorder:"), "{out}");
        assert!(out.contains(r#""ev":"req""#), "{out}");
        assert!(out.contains("server shutting down"), "{out}");
        let served = server.join().unwrap().unwrap();
        assert!(served.contains("shut down"), "{served}");
    }

    #[test]
    fn client_without_a_server_is_a_clear_error() {
        // Port 1 on loopback refuses immediately, so the retry loop
        // exhausts quickly into its final error.
        let e = run_str(&["client", "--addr", "127.0.0.1:1"]).unwrap_err();
        assert!(e.contains("cannot connect"), "{e}");
    }

    #[test]
    fn bad_option_values_error() {
        assert!(run_str(&["characterize", "--target", "banana"]).is_err());
        assert!(run_str(&["characterize", "--mode", "sideways"]).is_err());
        assert!(run_str(&["sweep", "--op", "carrier-pigeon"]).is_err());
        assert!(run_str(&["topo", "stray"]).is_err());
    }
}

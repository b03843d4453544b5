//! fio-style job files.
//!
//! The original tool is driven by INI-like job files; supporting the same
//! surface makes the simulated harness a drop-in for the paper's scripts.
//! Supported subset (everything the paper's experiments need):
//!
//! ```ini
//! [global]
//! size=400g
//! bs=128k
//! numjobs=4
//!
//! [send-node5]
//! ioengine=net        ; net|rdma|libaio|sync
//! rw=write            ; write|read (direction towards/from the device)
//! verb=tcp            ; net: tcp | rdma: write|read|send
//! cpunodebind=5
//! membind=5           ; optional; defaults to local-preferred
//! iodepth=16          ; libaio only
//! direct=1            ; O_DIRECT (kernel bypass)
//! ```
//!
//! Sections inherit `[global]` keys; later keys override earlier ones.

use crate::job::{JobSpec, Workload};
use crate::memsys::MemPolicy;
use crate::FioError;
use numa_iodev::{IoEngine, NicOp};
use numa_topology::NodeId;
use std::collections::BTreeMap;

fn err(line: usize, message: impl Into<String>) -> FioError {
    FioError::JobFile {
        line,
        message: message.into(),
    }
}

type KeyValues = BTreeMap<String, (usize, String)>;

/// Parse a job file into named job specs, in section order.
pub fn parse(text: &str) -> Result<Vec<(String, JobSpec)>, FioError> {
    let mut global: KeyValues = BTreeMap::new();
    let mut sections: Vec<(String, KeyValues)> = Vec::new();

    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        // Strip comments (';' and '#').
        let line = raw.split([';', '#']).next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            let name = name.trim();
            if name.is_empty() {
                return Err(err(line_no, "empty section name"));
            }
            if name.eq_ignore_ascii_case("global") {
                sections.push(("global".into(), BTreeMap::new()));
            } else {
                sections.push((name.to_string(), BTreeMap::new()));
            }
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| err(line_no, format!("expected key=value, got '{line}'")))?;
        let entry = (line_no, value.trim().to_string());
        match sections.last_mut() {
            Some((name, map)) if name != "global" => {
                map.insert(key.trim().to_lowercase(), entry);
            }
            _ => {
                global.insert(key.trim().to_lowercase(), entry);
            }
        }
    }

    let mut jobs = Vec::new();
    for (name, map) in sections.into_iter().filter(|(n, _)| n != "global") {
        let mut merged = global.clone();
        merged.extend(map);
        jobs.push((name.clone(), build_job(&name, &merged)?));
    }
    Ok(jobs)
}

fn build_job(name: &str, kv: &KeyValues) -> Result<JobSpec, FioError> {
    let get = |k: &str| kv.get(k).map(|(l, v)| (*l, v.as_str()));
    let engine_str = get("ioengine")
        .map(|(_, v)| v.to_lowercase())
        .unwrap_or_else(|| "net".into());
    let rw = get("rw")
        .map(|(_, v)| v.to_lowercase())
        .unwrap_or_else(|| "write".into());
    let write = match rw.as_str() {
        "write" | "randwrite" => true,
        "read" | "randread" => false,
        other => {
            let line = get("rw").map(|(l, _)| l).unwrap_or(0);
            return Err(err(line, format!("unsupported rw '{other}'")));
        }
    };

    let workload = match engine_str.as_str() {
        "net" | "tcp" => Workload::Nic(if write {
            NicOp::TcpSend
        } else {
            NicOp::TcpRecv
        }),
        "rdma" => {
            let verb = get("verb")
                .map(|(_, v)| v.to_lowercase())
                .unwrap_or_else(|| "write".into());
            let op = match verb.as_str() {
                "write" => NicOp::RdmaWrite,
                "read" => NicOp::RdmaRead,
                "send" => NicOp::SendRecv,
                other => {
                    let line = get("verb").map(|(l, _)| l).unwrap_or(0);
                    return Err(err(line, format!("unsupported rdma verb '{other}'")));
                }
            };
            Workload::Nic(op)
        }
        "libaio" | "sync" => {
            let engine = if engine_str == "sync" {
                IoEngine::Sync
            } else {
                let iodepth = match get("iodepth") {
                    None => 16,
                    Some((l, v)) => v
                        .parse::<u32>()
                        .map_err(|_| err(l, format!("bad iodepth '{v}'")))?,
                };
                IoEngine::Libaio { iodepth }
            };
            let direct = match get("direct") {
                None => true,
                Some((l, v)) => match v {
                    "1" | "true" => true,
                    "0" | "false" => false,
                    other => return Err(err(l, format!("bad direct flag '{other}'"))),
                },
            };
            Workload::Ssd {
                write,
                engine,
                direct,
            }
        }
        other => {
            let line = get("ioengine").map(|(l, _)| l).unwrap_or(0);
            return Err(err(line, format!("unsupported ioengine '{other}'")));
        }
    };

    let bind = match get("cpunodebind") {
        None => return Err(err(0, format!("job '{name}': cpunodebind is required"))),
        Some((l, v)) => NodeId(
            v.parse::<u16>()
                .map_err(|_| err(l, format!("bad cpunodebind '{v}'")))?,
        ),
    };
    let mem_policy = match get("membind") {
        None => MemPolicy::LocalPreferred,
        Some((l, v)) => MemPolicy::Bind(NodeId(
            v.parse::<u16>()
                .map_err(|_| err(l, format!("bad membind '{v}'")))?,
        )),
    };
    let numjobs = match get("numjobs") {
        None => 1,
        Some((l, v)) => {
            let n: u32 = v
                .parse()
                .map_err(|_| err(l, format!("bad numjobs '{v}'")))?;
            if n == 0 {
                return Err(err(l, "numjobs must be at least 1"));
            }
            n
        }
    };
    let size_gbytes = match get("size") {
        None => 400.0,
        Some((l, v)) => parse_size_gbytes(v).ok_or_else(|| err(l, format!("bad size '{v}'")))?,
    };
    let block_kib = match get("bs") {
        None => 128,
        Some((l, v)) => parse_size_gbytes(v)
            .map(|gb| (gb * 1024.0 * 1024.0) as u32)
            .filter(|&k| k > 0)
            .ok_or_else(|| err(l, format!("bad bs '{v}'")))?,
    };

    let weight = match get("weight") {
        None => 1.0,
        Some((l, v)) => {
            let w: f64 = v.parse().map_err(|_| err(l, format!("bad weight '{v}'")))?;
            if w <= 0.0 {
                return Err(err(l, "weight must be positive"));
            }
            w
        }
    };

    let mut job = match workload {
        Workload::Nic(op) => JobSpec::nic(op, bind),
        Workload::Ssd { .. } => JobSpec::ssd(write, bind),
    };
    job.workload = workload;
    job = job
        .numjobs(numjobs)
        .size_gbytes(size_gbytes)
        .mem_policy(mem_policy)
        .weight(weight);
    job.block_kib = block_kib;
    Ok(job)
}

/// Parse fio size suffixes into GBytes: `400g`, `128k`, `1m`, `2t`, plain
/// bytes.
fn parse_size_gbytes(s: &str) -> Option<f64> {
    let s = s.trim().to_lowercase();
    let (num, mult) = match s.chars().last()? {
        'k' => (&s[..s.len() - 1], 1.0 / (1024.0 * 1024.0)),
        'm' => (&s[..s.len() - 1], 1.0 / 1024.0),
        'g' => (&s[..s.len() - 1], 1.0),
        't' => (&s[..s.len() - 1], 1024.0),
        c if c.is_ascii_digit() => (s.as_str(), 1.0 / (1024.0 * 1024.0 * 1024.0)),
        _ => return None,
    };
    let v: f64 = num.trim().parse().ok()?;
    if v < 0.0 {
        return None;
    }
    Some(v * mult)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER_FILE: &str = r"
; Table III network test, 4 TCP senders on node 5
[global]
size=400g
bs=128k

[tcp-send-n5]
ioengine=net
rw=write
cpunodebind=5
numjobs=4
";

    #[test]
    fn parses_the_paper_job() {
        let jobs = parse(PAPER_FILE).unwrap();
        assert_eq!(jobs.len(), 1);
        let (name, job) = &jobs[0];
        assert_eq!(name, "tcp-send-n5");
        assert_eq!(job.workload, Workload::Nic(NicOp::TcpSend));
        assert_eq!(job.bind, NodeId(5));
        assert_eq!(job.numjobs, 4);
        assert_eq!(job.size_gbytes, 400.0);
        assert_eq!(job.block_kib, 128);
    }

    #[test]
    fn rdma_and_ssd_sections() {
        let text = r"
[rdma-read]
ioengine=rdma
verb=read
rw=read
cpunodebind=2
numjobs=2

[disk]
ioengine=libaio
iodepth=16
direct=1
rw=read
cpunodebind=6
size=20g
";
        let jobs = parse(text).unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].1.workload, Workload::Nic(NicOp::RdmaRead));
        match &jobs[1].1.workload {
            Workload::Ssd {
                write,
                engine,
                direct,
            } => {
                assert!(!write);
                assert_eq!(*engine, IoEngine::Libaio { iodepth: 16 });
                assert!(direct);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(jobs[1].1.size_gbytes, 20.0);
    }

    #[test]
    fn global_inheritance_and_override() {
        let text = r"
[global]
numjobs=8
cpunodebind=1

[a]
ioengine=net

[b]
ioengine=net
numjobs=2
";
        let jobs = parse(text).unwrap();
        assert_eq!(jobs[0].1.numjobs, 8);
        assert_eq!(jobs[1].1.numjobs, 2);
        assert_eq!(jobs[1].1.bind, NodeId(1));
    }

    #[test]
    fn membind_overrides_local_preference() {
        let text = "[j]\nioengine=rdma\nverb=write\ncpunodebind=6\nmembind=3\n";
        let jobs = parse(text).unwrap();
        assert_eq!(jobs[0].1.mem_policy, MemPolicy::Bind(NodeId(3)));
        assert_eq!(jobs[0].1.buffer_node(), NodeId(3));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# header\n\n[j] ; trailing\nioengine=net ; tcp\ncpunodebind=0\n";
        assert_eq!(parse(text).unwrap().len(), 1);
    }

    /// The `(line, message)` of a job file that fails to parse.
    fn parse_err(text: &str) -> (usize, String) {
        match parse(text) {
            Err(FioError::JobFile { line, message }) => (line, message),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let (line, message) = parse_err("[j]\nioengine=floppy\ncpunodebind=0\n");
        assert_eq!(line, 2);
        assert!(message.contains("floppy"));

        let (_, message) = parse_err("[j]\nioengine=net\n");
        assert!(message.contains("cpunodebind is required"));

        let (line, _) = parse_err("[j]\nnonsense-line\n");
        assert_eq!(line, 2);

        let (line, _) = parse_err("[j]\nioengine=net\ncpunodebind=0\nnumjobs=0\n");
        assert_eq!(line, 4);
    }

    #[test]
    fn weight_key_parses_and_validates() {
        let jobs = parse("[j]\nioengine=rdma\nverb=write\ncpunodebind=6\nweight=2.5\n").unwrap();
        assert_eq!(jobs[0].1.weight, 2.5);
        let (_, message) = parse_err("[j]\nioengine=net\ncpunodebind=0\nweight=-1\n");
        assert!(message.contains("positive"));
    }

    #[test]
    fn size_suffixes() {
        assert_eq!(parse_size_gbytes("400g"), Some(400.0));
        assert_eq!(parse_size_gbytes("1t"), Some(1024.0));
        assert_eq!(parse_size_gbytes("512m"), Some(0.5));
        assert!((parse_size_gbytes("128k").unwrap() - 128.0 / 1024.0 / 1024.0).abs() < 1e-12);
        assert_eq!(parse_size_gbytes("-3g"), None);
        assert_eq!(parse_size_gbytes("banana"), None);
    }

    #[test]
    fn parsed_jobs_run_on_the_simulator() {
        let fabric = numa_fabric::calibration::dl585_fabric();
        let text = "[j]\nioengine=rdma\nverb=write\ncpunodebind=3\nsize=5g\nnumjobs=2\n";
        let jobs: Vec<JobSpec> = parse(text).unwrap().into_iter().map(|(_, j)| j).collect();
        let report = crate::run_jobs(&fabric, &jobs).unwrap();
        // Node 3 RDMA_WRITE: the Table IV class-3 level.
        assert!(
            (report.aggregate_gbps - 17.05).abs() < 0.1,
            "{}",
            report.aggregate_gbps
        );
    }
}

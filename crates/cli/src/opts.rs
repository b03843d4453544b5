//! `--key value` / `--flag` option parsing shared by every subcommand.

use numa_iodev::NicOp;
use numa_topology::{presets, NodeId, Topology};
use numio_core::{DeviceSelector, TransferMode};

/// Parsed `--key value` / `--flag` options.
pub(crate) struct Opts {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Opts {
    pub(crate) fn parse(args: &[String]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if !a.starts_with("--") {
                return Err(format!("unexpected argument '{a}'"));
            }
            let key = a.trim_start_matches("--").to_string();
            if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                pairs.push((key, args[i + 1].clone()));
                i += 2;
            } else {
                flags.push(key);
                i += 1;
            }
        }
        Ok(Opts { pairs, flags })
    }

    pub(crate) fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    pub(crate) fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    pub(crate) fn node(&self, key: &str, default: u16) -> Result<NodeId, String> {
        match self.get(key) {
            None => Ok(NodeId(default)),
            Some(v) => v
                .parse::<u16>()
                .map(NodeId)
                .map_err(|_| format!("--{key} expects a node id, got '{v}'")),
        }
    }

    pub(crate) fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse::<T>()
                .map_err(|_| format!("--{key}: cannot parse '{v}'")),
        }
    }

    pub(crate) fn mode(&self) -> Result<TransferMode, String> {
        match self.get("mode").unwrap_or("write") {
            "write" | "w" => Ok(TransferMode::Write),
            "read" | "r" => Ok(TransferMode::Read),
            other => Err(format!("--mode must be write|read, got '{other}'")),
        }
    }

    pub(crate) fn device(&self) -> Result<DeviceSelector, String> {
        match self.get("device") {
            None => Ok(DeviceSelector::Probe),
            Some(v) => DeviceSelector::parse(v).ok_or_else(|| {
                format!(
                    "--device must be probe|ssd0|ssd0:<engine>-<access> \
                     (e.g. ssd0:sync-buffered), got '{v}'"
                )
            }),
        }
    }

    pub(crate) fn nic_op(&self) -> Result<NicOp, String> {
        match self.get("op").unwrap_or("rdma_read") {
            "tcp_send" => Ok(NicOp::TcpSend),
            "tcp_recv" => Ok(NicOp::TcpRecv),
            "rdma_write" => Ok(NicOp::RdmaWrite),
            "rdma_read" => Ok(NicOp::RdmaRead),
            "send_recv" => Ok(NicOp::SendRecv),
            other => Err(format!(
                "--op must be tcp_send|tcp_recv|rdma_write|rdma_read|send_recv, got '{other}'"
            )),
        }
    }

    pub(crate) fn preset(&self) -> Result<Topology, String> {
        match self.get("preset").unwrap_or("dl585") {
            "dl585" => Ok(presets::dl585_testbed()),
            "fig1a" => Ok(presets::fig1a()),
            "fig1b" => Ok(presets::fig1b()),
            "fig1c" => Ok(presets::fig1c()),
            "fig1d" => Ok(presets::fig1d()),
            "intel4" => Ok(presets::intel_4s4n()),
            "amd8" => Ok(presets::amd_8s8n()),
            "blade32" => Ok(presets::blade32()),
            other => Err(format!("unknown preset '{other}'")),
        }
    }
}

//! PCIe device descriptions (NICs and SSDs).

use crate::ids::NodeId;

numa_par::json_enum! {
    /// PCI Express generation; determines per-lane raw rate and encoding
    /// overhead. The testbed NIC and SSDs sit on Gen 2 x8 slots, which is why
    /// the paper's 40 Gbps adapter tops out near 25 Gbps of goodput
    /// (32 Gbps after 8b/10b, minus protocol overhead — §IV-B1).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum PcieGen {
        /// Gen 1: 2.5 GT/s per lane, 8b/10b encoding.
        Gen1,
        /// Gen 2: 5.0 GT/s per lane, 8b/10b encoding.
        Gen2,
        /// Gen 3: 8.0 GT/s per lane, 128b/130b encoding.
        Gen3,
    }
}

impl PcieGen {
    /// Raw per-lane rate in GT/s.
    pub fn raw_gtps(self) -> f64 {
        match self {
            PcieGen::Gen1 => 2.5,
            PcieGen::Gen2 => 5.0,
            PcieGen::Gen3 => 8.0,
        }
    }

    /// Encoding efficiency (payload bits per wire bit).
    pub fn encoding_efficiency(self) -> f64 {
        match self {
            PcieGen::Gen1 | PcieGen::Gen2 => 0.8, // 8b/10b
            PcieGen::Gen3 => 128.0 / 130.0,       // 128b/130b
        }
    }
}

numa_par::json_struct! {
    /// A PCIe interface: generation plus lane count.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct PcieInterface {
        /// Link generation.
        pub gen: PcieGen,
        /// Number of lanes (x1, x4, x8, x16).
        pub lanes: u32,
    }
}

impl PcieInterface {
    /// Gen 2 x8: the testbed slot for both the ConnectX-3 NIC and the LSI
    /// Nytro WarpDrive cards (Table II).
    pub const GEN2_X8: PcieInterface = PcieInterface {
        gen: PcieGen::Gen2,
        lanes: 8,
    };

    /// Effective data bandwidth in Gbit/s after encoding overhead.
    ///
    /// For Gen 2 x8 this is 5.0 * 8 * 0.8 = 32 Gbps, the figure the paper
    /// uses to argue its measured 25 Gbps is close to the theoretical limit.
    pub fn effective_gbps(&self) -> f64 {
        self.gen.raw_gtps() * self.lanes as f64 * self.gen.encoding_efficiency()
    }
}

numa_par::json_enum! {
    /// What kind of device this is. Kept coarse on purpose: performance
    /// parameters (port rates, protocol efficiencies, queue depths) live in
    /// `numa-iodev`, keyed by [`crate::ids::DeviceId`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum DeviceKind {
        /// A network adapter (the testbed's ConnectX-3 EN dual-port 40 GbE with
        /// RoCE).
        Nic,
        /// A PCIe-attached SSD (the testbed's LSI Nytro WarpDrive WLP4-200).
        Ssd,
    }
}

numa_par::json_struct! {
    /// A PCIe device and where it is attached.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct DeviceSpec {
        /// Device class.
        pub kind: DeviceKind,
        /// NUMA node whose I/O hub the device hangs off. All testbed devices
        /// attach to node 7 (Fig. 2), which therefore also services their
        /// hardware interrupts (§III-B2).
        pub attached_to: NodeId,
        /// Host interface.
        pub pcie: PcieInterface,
    }
}

impl DeviceSpec {
    /// The testbed NIC: ConnectX-3 on Gen2 x8 at node `attached_to`.
    pub fn nic(attached_to: NodeId) -> Self {
        DeviceSpec {
            kind: DeviceKind::Nic,
            attached_to,
            pcie: PcieInterface::GEN2_X8,
        }
    }

    /// A testbed SSD card: LSI Nytro on Gen2 x8 at node `attached_to`.
    pub fn ssd(attached_to: NodeId) -> Self {
        DeviceSpec {
            kind: DeviceKind::Ssd,
            attached_to,
            pcie: PcieInterface::GEN2_X8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen2_x8_is_32_gbps_effective() {
        let bw = PcieInterface::GEN2_X8.effective_gbps();
        assert!((bw - 32.0).abs() < 1e-9, "got {bw}");
    }

    #[test]
    fn gen3_uses_denser_encoding() {
        let g3 = PcieInterface {
            gen: PcieGen::Gen3,
            lanes: 8,
        };
        assert!(g3.effective_gbps() > 60.0);
        assert!(PcieGen::Gen3.encoding_efficiency() > PcieGen::Gen2.encoding_efficiency());
    }

    #[test]
    fn device_constructors_attach_correctly() {
        let nic = DeviceSpec::nic(NodeId(7));
        assert_eq!(nic.kind, DeviceKind::Nic);
        assert_eq!(nic.attached_to, NodeId(7));
        let ssd = DeviceSpec::ssd(NodeId(7));
        assert_eq!(ssd.kind, DeviceKind::Ssd);
        assert_eq!(ssd.pcie, PcieInterface::GEN2_X8);
    }
}

//! Table III: parameters for the network I/O tests.

/// The paper's network test configuration (applies to TCP and RDMA runs).
#[derive(Debug, Clone, PartialEq)]
pub struct NetTestParams {
    /// Data requested by each test process, GBytes.
    pub data_per_process_gbytes: f64,
    /// TCP congestion control variant.
    pub tcp_variant: String,
    /// I/O block size, KiB.
    pub io_block_kib: u32,
    /// Ethernet frame size (jumbo frames).
    pub ethernet_frame_size: u32,
    /// Round-trip time between the two hosts, ms (§III-A: ~0.005 ms).
    pub rtt_ms: f64,
}

impl NetTestParams {
    /// Table III verbatim.
    pub fn paper() -> Self {
        NetTestParams {
            data_per_process_gbytes: 400.0,
            tcp_variant: "Cubic".to_string(),
            io_block_kib: 128,
            ethernet_frame_size: 9000,
            rtt_ms: 0.005,
        }
    }

    /// Render as the Table III rows.
    pub fn render(&self) -> String {
        format!(
            "Data size requested by each test process  {} GBytes\n\
             TCP Variant                               {}\n\
             IO block size                             {} KBytes\n\
             Ethernet frame size                       {}\n",
            self.data_per_process_gbytes,
            self.tcp_variant,
            self.io_block_kib,
            self.ethernet_frame_size
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_values() {
        let p = NetTestParams::paper();
        assert_eq!(p.data_per_process_gbytes, 400.0);
        assert_eq!(p.tcp_variant, "Cubic");
        assert_eq!(p.io_block_kib, 128);
        assert_eq!(p.ethernet_frame_size, 9000);
    }

    #[test]
    fn render_contains_rows() {
        let s = NetTestParams::paper().render();
        assert!(s.contains("400 GBytes"));
        assert!(s.contains("Cubic"));
        assert!(s.contains("9000"));
    }
}

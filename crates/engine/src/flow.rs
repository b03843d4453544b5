//! Flow descriptions and per-flow results.

use crate::resources::ResourceHandle;
use numa_fabric::TrafficClass;
use numa_topology::NodeId;
use std::sync::Arc;

/// Index of a flow within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u32);

impl FlowId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A transfer to simulate: `volume_gbit` of data moving from memory on
/// `src` to memory on `dst` as `class` traffic, optionally capped and
/// optionally charging extra caller-registered resources (device ports,
/// CPU budgets, IRQ overhead).
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    /// Source memory node.
    pub src: NodeId,
    /// Destination memory node.
    pub dst: NodeId,
    /// Traffic class (PIO rides the STREAM model, DMA the link min-cut).
    pub class: TrafficClass,
    /// Transfer volume in gigabits.
    pub volume_gbit: f64,
    /// Per-flow ceiling in Gbit/s (protocol or per-stream CPU limit);
    /// `INFINITY` if only shared hardware binds.
    pub ceiling_gbps: f64,
    /// Additional shared resources this flow charges.
    pub extra_resources: Charges,
    /// Charge the source node's memory controller? `false` when the source
    /// is a device buffer (device DMA does not consume host DRAM bandwidth
    /// on the hub node — it enters the fabric straight from the I/O hub).
    pub charge_src_copy: bool,
    /// Charge the destination node's memory controller? (see above)
    pub charge_dst_copy: bool,
    /// Fairness weight (weighted max-min): a weight-2 flow gets twice the
    /// share of any contended resource. QoS knob; 1.0 = plain fairness.
    pub weight: f64,
    /// Arrival time, seconds from simulation start. 0.0 (the closed-loop
    /// default) means the flow competes from the first instant; a later
    /// arrival posts a `FlowArrival` event on the calendar and the flow
    /// sits idle until it fires.
    pub arrival_s: f64,
    /// Free-form label for reports ("tcp-send n5 s3", ...). Shared, so a
    /// workload's flows and their results point at their template's text.
    pub label: Arc<str>,
}

impl FlowSpec {
    /// A DMA-class flow (device transfers and the paper's pinned-`memcpy`
    /// probes).
    pub fn dma(src: NodeId, dst: NodeId) -> Self {
        FlowSpec {
            src,
            dst,
            class: TrafficClass::Dma,
            volume_gbit: 8.0 * 400.0, // paper default: 400 GBytes per stream
            ceiling_gbps: f64::INFINITY,
            extra_resources: Charges::default(),
            charge_src_copy: true,
            charge_dst_copy: true,
            weight: 1.0,
            arrival_s: 0.0,
            label: Arc::default(),
        }
    }

    /// A PIO-class flow (STREAM-style CPU copies). `src` is the CPU node,
    /// `dst` the memory node.
    pub fn pio(cpu: NodeId, mem: NodeId) -> Self {
        FlowSpec {
            class: TrafficClass::Pio,
            ..FlowSpec::dma(cpu, mem)
        }
    }

    /// Set the volume in gigabytes.
    pub fn gbytes(mut self, gb: f64) -> Self {
        self.volume_gbit = gb * 8.0;
        self
    }

    /// Set the volume in gigabits.
    pub fn gbits(mut self, gbit: f64) -> Self {
        self.volume_gbit = gbit;
        self
    }

    /// Cap the flow's rate (Gbit/s).
    pub fn ceiling(mut self, gbps: f64) -> Self {
        self.ceiling_gbps = gbps;
        self
    }

    /// Charge an extra shared resource (at most [`Charges::MAX`] per
    /// flow).
    pub fn charge(mut self, r: ResourceHandle) -> Self {
        self.extra_resources.push(r);
        self
    }

    /// Attach a label.
    pub fn label(mut self, label: impl Into<Arc<str>>) -> Self {
        self.label = label.into();
        self
    }

    /// Mark the source endpoint as a device buffer: its node's memory
    /// controller is not charged.
    pub fn device_src(mut self) -> Self {
        self.charge_src_copy = false;
        self
    }

    /// Mark the destination endpoint as a device buffer.
    pub fn device_dst(mut self) -> Self {
        self.charge_dst_copy = false;
        self
    }

    /// Set the fairness weight (must be positive).
    pub fn weight(mut self, weight: f64) -> Self {
        assert!(weight > 0.0, "weight must be positive");
        self.weight = weight;
        self
    }

    /// Set the arrival time, seconds from simulation start (must be
    /// finite and non-negative).
    pub fn arrival(mut self, at_s: f64) -> Self {
        assert!(
            at_s.is_finite() && at_s >= 0.0,
            "arrival must be finite and >= 0"
        );
        self.arrival_s = at_s;
        self
    }
}

/// The extra resources one flow charges, held inline: a flow spec stays
/// the size it had with a `Vec`, and charging allocates nothing.
#[derive(Clone, Copy, Default)]
pub struct Charges {
    len: u8,
    handles: [u32; Charges::MAX],
}

impl Charges {
    /// Most extra resources one flow may charge. The fio lowering charges
    /// at most four: protocol engine, PCIe direction, class ceiling and
    /// CPU budget.
    pub const MAX: usize = 5;

    /// Append `h`. Panics past [`Self::MAX`] charges.
    pub fn push(&mut self, h: ResourceHandle) {
        let i = usize::from(self.len);
        assert!(
            i < Self::MAX,
            "a flow charges at most {} resources",
            Self::MAX
        );
        self.handles[i] = u32::try_from(h.index()).expect("fewer than 2^32 resources");
        self.len += 1;
    }

    /// The charged handles, in charge order.
    pub fn iter(&self) -> impl Iterator<Item = ResourceHandle> + '_ {
        self.handles[..usize::from(self.len)]
            .iter()
            .map(|&h| ResourceHandle(h as usize))
    }

    /// Does the flow charge no extra resource?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl PartialEq for Charges {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

/// A list, as the `Vec` it replaces printed.
impl std::fmt::Debug for Charges {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Outcome of one flow.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowResult {
    /// The flow's id.
    pub id: FlowId,
    /// The spec's label (the same shared text, not a copy).
    pub label: Arc<str>,
    /// Volume transferred, gigabits.
    pub volume_gbit: f64,
    /// When the flow started competing, seconds from simulation start
    /// (its arrival time).
    pub start_s: f64,
    /// Completion time from simulation start, seconds.
    pub finish_s: f64,
    /// Flow completion time: `finish_s - start_s`.
    pub fct_s: f64,
    /// Mean rate while the flow ran: volume / FCT. This is what fio
    /// reports per job (it averages over the job's lifetime).
    pub mean_gbps: f64,
    /// FCT divided by the flow's isolated-run time on an idle fabric.
    /// 1.0 means no contention.
    pub slowdown: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let f = FlowSpec::dma(NodeId(0), NodeId(7))
            .gbytes(10.0)
            .ceiling(5.0)
            .label("x");
        assert_eq!(f.volume_gbit, 80.0);
        assert_eq!(f.ceiling_gbps, 5.0);
        assert_eq!(&*f.label, "x");
        assert_eq!(f.class, TrafficClass::Dma);
    }

    #[test]
    fn charges_keep_order_and_the_size_of_a_vec() {
        let f = FlowSpec::dma(NodeId(0), NodeId(1))
            .charge(ResourceHandle(3))
            .charge(ResourceHandle(1));
        let listed: Vec<usize> = f.extra_resources.iter().map(|h| h.index()).collect();
        assert_eq!(listed, [3, 1]);
        assert_eq!(
            format!("{:?}", f.extra_resources),
            "[ResourceHandle(3), ResourceHandle(1)]"
        );
        // A flow spec must not grow: open-loop runs hold thousands.
        assert!(std::mem::size_of::<Charges>() <= std::mem::size_of::<Vec<ResourceHandle>>());
    }

    #[test]
    #[should_panic(expected = "at most 5")]
    fn charges_past_the_inline_bound_panic() {
        let mut c = Charges::default();
        for i in 0..=Charges::MAX {
            c.push(ResourceHandle(i));
        }
    }

    #[test]
    fn default_volume_matches_paper() {
        // Table III: 400 GBytes per test process.
        let f = FlowSpec::dma(NodeId(0), NodeId(7));
        assert_eq!(f.volume_gbit, 3200.0);
    }

    #[test]
    fn pio_swaps_class() {
        let f = FlowSpec::pio(NodeId(1), NodeId(2)).gbits(1.5);
        assert_eq!(f.class, TrafficClass::Pio);
        assert_eq!(f.volume_gbit, 1.5);
    }
}

//! Shared-resource registry for a simulation.
//!
//! The fabric contributes link and memory-controller resources
//! automatically; callers register additional ones (NIC ports, SSD channel
//! budgets, per-node CPU protocol-processing capacity, IRQ overhead) and
//! attach them to flows via [`ResourceHandle`].
//! Node copy budgets and edges have dense slots, so lowering a flow looks
//! them up by index; every other key sits in one sorted list, found by
//! binary search. Nothing is hashed.

use numa_topology::{DeviceId, DirectedEdge, NodeId};

/// Semantic identity of a shared resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ResourceKey {
    /// One direction of an interconnect link (DMA/PIO bytes on the wire).
    Edge(DirectedEdge),
    /// A node's memory-controller copy bandwidth.
    NodeCopy(NodeId),
    /// A node's aggregate CPU budget for protocol processing (TCP stacks,
    /// interrupt handling). Unit: Gbit/s of payload the node can shepherd.
    NodeCpu(NodeId),
    /// A device port in one direction.
    DevicePort {
        /// Which device.
        dev: DeviceId,
        /// `true` = host-to-device (write/send), `false` = device-to-host.
        to_device: bool,
    },
    /// Caller-defined.
    Custom(u32),
}

/// Opaque index of a registered resource (stable within one simulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceHandle(pub(crate) usize);

impl ResourceHandle {
    /// Dense index into the capacity vector.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Marks a dense slot no resource holds yet.
const VACANT: u32 = u32::MAX;

/// Registry mapping semantic keys to dense indices with capacities. It
/// keeps the key-to-handle direction only: lowering never asks the
/// other way, and [`Self::key`] and [`Self::keys`] scan the tables.
#[derive(Debug, Clone)]
pub struct ResourceRegistry {
    /// Capacity per handle, until [`Self::take_capacities`].
    caps: Vec<f64>,
    /// Resources registered: the next handle.
    len: u32,
    nodes: usize,
    /// Handle of `NodeCopy(v)` at `v`, of `Edge(a -> b)` at
    /// `nodes + a * nodes + b`, or [`VACANT`].
    slots: Vec<u32>,
    /// Every other key with its handle, sorted by key. Callers register
    /// custom keys in ascending order, so an insert is nearly always a
    /// push.
    others: Vec<(ResourceKey, u32)>,
}

impl ResourceRegistry {
    /// Empty registry with dense slots for a `nodes`-node host, sized to
    /// register every copy budget, a route's worth of edges and a few
    /// device resources without growing.
    pub fn new(nodes: usize) -> Self {
        ResourceRegistry {
            caps: Vec::with_capacity(2 * nodes + 8),
            len: 0,
            nodes,
            slots: vec![VACANT; nodes + nodes * nodes],
            others: Vec::new(),
        }
    }

    fn slot(&self, key: ResourceKey) -> Option<usize> {
        let n = self.nodes;
        match key {
            ResourceKey::NodeCopy(v) if v.index() < n => Some(v.index()),
            ResourceKey::Edge(e) if e.from.index() < n && e.to.index() < n => {
                Some(n + e.from.index() * n + e.to.index())
            }
            _ => None,
        }
    }

    /// Register (or look up) a resource; the capacity of an existing key is
    /// left unchanged.
    pub fn ensure(&mut self, key: ResourceKey, cap: f64) -> ResourceHandle {
        self.ensure_with(key, || cap)
    }

    /// [`Self::ensure`], reading the capacity only when `key` is new.
    pub fn ensure_with(&mut self, key: ResourceKey, cap: impl FnOnce() -> f64) -> ResourceHandle {
        let next = self.len;
        assert!(next < VACANT, "fewer than 2^32 - 1 resources");
        let h = match self.slot(key) {
            Some(s) => {
                if self.slots[s] == VACANT {
                    self.slots[s] = next;
                }
                self.slots[s]
            }
            None => match self.others.binary_search_by_key(&key, |&(k, _)| k) {
                Ok(i) => self.others[i].1,
                Err(i) => {
                    self.others.insert(i, (key, next));
                    next
                }
            },
        };
        if h == next {
            self.len += 1;
            self.caps.push(cap());
        }
        ResourceHandle(h as usize)
    }

    /// Look up an existing resource.
    pub fn get(&self, key: ResourceKey) -> Option<ResourceHandle> {
        match self.slot(key) {
            Some(s) => (self.slots[s] != VACANT).then(|| ResourceHandle(self.slots[s] as usize)),
            None => self
                .others
                .binary_search_by_key(&key, |&(k, _)| k)
                .ok()
                .map(|i| ResourceHandle(self.others[i].1 as usize)),
        }
    }

    /// Capacity of a resource.
    pub fn capacity(&self, h: ResourceHandle) -> f64 {
        self.caps[h.0]
    }

    /// Overwrite a capacity (e.g. derate a node's CPU for IRQ handling).
    pub fn set_capacity(&mut self, h: ResourceHandle, cap: f64) {
        self.caps[h.0] = cap;
    }

    /// Hand every capacity to the allocator, leaving the registry's list
    /// empty: from then on the registry names resources and the
    /// allocator holds their capacities.
    pub fn take_capacities(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.caps)
    }

    /// Key of a registered handle (a scan of [`Self::keys`]).
    pub fn key(&self, h: ResourceHandle) -> ResourceKey {
        self.keys()[h.0]
    }

    /// Every registered key, indexed by handle, from one pass over the
    /// key tables.
    pub fn keys(&self) -> Vec<ResourceKey> {
        let mut keys = vec![ResourceKey::Custom(0); self.len()];
        for (s, &h) in self.slots.iter().enumerate() {
            if h != VACANT {
                keys[h as usize] = self.slot_key(s);
            }
        }
        for &(k, h) in &self.others {
            keys[h as usize] = k;
        }
        keys
    }

    /// The key whose dense slot is `s`.
    fn slot_key(&self, s: usize) -> ResourceKey {
        let n = self.nodes;
        if s < n {
            ResourceKey::NodeCopy(NodeId::new(s))
        } else {
            let (a, b) = ((s - n) / n, (s - n) % n);
            ResourceKey::Edge(DirectedEdge::new(NodeId::new(a), NodeId::new(b)))
        }
    }

    /// Number of registered resources.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_is_idempotent() {
        let mut r = ResourceRegistry::new(2);
        let a = r.ensure(ResourceKey::Custom(1), 10.0);
        let b = r.ensure(ResourceKey::Custom(1), 99.0);
        assert_eq!(a, b);
        assert_eq!(r.capacity(a), 10.0, "existing capacity is kept");
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn distinct_keys_get_distinct_handles() {
        let mut r = ResourceRegistry::new(2);
        let a = r.ensure(ResourceKey::NodeCpu(NodeId(1)), 20.0);
        let b = r.ensure(ResourceKey::NodeCopy(NodeId(1)), 50.0);
        assert_ne!(a, b);
        assert_eq!(r.key(a), ResourceKey::NodeCpu(NodeId(1)));
        assert_eq!(r.key(b), ResourceKey::NodeCopy(NodeId(1)));
        assert_eq!(r.take_capacities(), [20.0, 50.0]);
    }

    #[test]
    fn set_capacity_overwrites() {
        let mut r = ResourceRegistry::new(2);
        let a = r.ensure(ResourceKey::Custom(0), 10.0);
        r.set_capacity(a, 7.5);
        assert_eq!(r.capacity(a), 7.5);
    }

    #[test]
    fn device_port_directions_are_distinct() {
        let mut r = ResourceRegistry::new(2);
        let w = r.ensure(
            ResourceKey::DevicePort {
                dev: DeviceId(0),
                to_device: true,
            },
            23.3,
        );
        let rd = r.ensure(
            ResourceKey::DevicePort {
                dev: DeviceId(0),
                to_device: false,
            },
            22.0,
        );
        assert_ne!(w, rd);
    }

    #[test]
    fn fabric_keys_take_dense_slots_and_read_capacity_once() {
        let mut r = ResourceRegistry::new(2);
        let e = ResourceKey::Edge(DirectedEdge::new(NodeId(1), NodeId(0)));
        let a = r.ensure_with(e, || 4.0);
        let b = r.ensure_with(e, || unreachable!("registered already"));
        assert_eq!(a, b);
        assert_eq!(r.get(e), Some(a));
        assert_eq!(
            r.get(ResourceKey::Edge(DirectedEdge::new(NodeId(0), NodeId(1)))),
            None
        );
        // Keys outside the host fall back to the sorted list.
        let far = ResourceKey::NodeCopy(NodeId(5));
        assert_eq!(r.get(far), None);
        let c = r.ensure(far, 1.0);
        assert_eq!(r.get(far), Some(c));
        assert_eq!(r.keys(), [e, far]);
        assert_eq!(r.take_capacities(), [4.0, 1.0]);
    }

    #[test]
    fn get_finds_registered_only() {
        let mut r = ResourceRegistry::new(2);
        assert!(r.get(ResourceKey::Custom(5)).is_none());
        let h = r.ensure(ResourceKey::Custom(5), 1.0);
        assert_eq!(r.get(ResourceKey::Custom(5)), Some(h));
        assert!(!r.is_empty());
    }
}

//! Workspace-level serving smoke: many concurrent clients get
//! bit-identical Eq. 1 answers from ONE characterization, and fault-view
//! invalidation is targeted — exactly one key leaves the cache.

use numio::core::{IoModeler, SimPlatform};
use numio::faults::FaultPlan;
use numio::serve::{encode, spawn, Client, ModelService, Request, Response, WireMode};
use numio::prelude::CharacterizationCache;
use numio::serve::{CacheKey, ModelKey};
use std::sync::Arc;

fn service(reps: u32) -> Arc<ModelService<SimPlatform>> {
    Arc::new(ModelService::new(SimPlatform::dl585()).with_modeler(IoModeler::new().reps(reps)))
}

#[test]
fn eight_concurrent_clients_share_one_characterization() {
    let svc = service(3);
    let server = spawn(Arc::clone(&svc), "127.0.0.1:0").unwrap();
    let addr = server.addr().to_string();
    let line = encode(&Request::Predict {
        device: None,
        target: 7,
        mode: WireMode::Write,
        mix: vec![(6, 2), (2, 1), (0, 1)],
    });

    // Eight clients connect at once and race the cold cache.
    let replies: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (addr, line) = (addr.clone(), line.clone());
                s.spawn(move || {
                    let mut client = Client::connect(&addr).unwrap();
                    client.call_raw(&line).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Bit-identical down to the wire bytes, no matter who paid the miss.
    for reply in &replies[1..] {
        assert_eq!(reply, &replies[0], "all clients must see one answer");
    }
    match numio::serve::decode_response(&replies[0]).unwrap() {
        Response::Predict { predicted_gbps, .. } => assert!(predicted_gbps > 0.0),
        other => panic!("unexpected reply: {other:?}"),
    }

    // The stampede characterized exactly once: one cold miss, every other
    // request a hit against the shared (target 7, write) model.
    let stats = svc.cache().stats();
    assert_eq!(stats.misses, 1, "double-checked locking must count one miss");
    assert_eq!(stats.hits, 7);
    assert_eq!(stats.entries, 1);
    server.shutdown();
}

#[test]
fn invalidation_evicts_exactly_one_key() {
    let platform = SimPlatform::dl585();
    let modeler = IoModeler::new().reps(3);
    let cache = CharacterizationCache::new();

    // Warm two views: the healthy machine and a degraded one.
    let base_faults: &[numio::faults::FaultKind] = &[];
    let demo_faults = FaultPlan::demo(42).kinds();
    let base = CacheKey::new(&platform, base_faults, 0);
    let faulted = CacheKey::new(&platform, &demo_faults, 0);
    let atlas = |view: &CacheKey, faults| {
        let key = ModelKey::atlas(view.clone());
        cache.get(&key, &platform, &modeler, faults).unwrap();
    };
    atlas(&base, base_faults);
    atlas(&faulted, &demo_faults);
    assert_eq!(cache.stats().hits, 0, "both views are cold");
    assert_ne!(base, faulted, "fault views must key separately");
    assert_eq!(cache.len(), 2);
    assert_eq!(cache.stats().misses, 2, "each cold view counts one miss");

    // Targeted invalidation: the base key leaves, the faulted key stays hot.
    assert!(cache.invalidate(&base));
    assert!(!cache.contains(&base));
    assert!(cache.contains(&faulted));
    assert_eq!(cache.len(), 1);
    assert_eq!(cache.stats().invalidations, 1);
    // Invalidating an absent key is a no-op, not a second eviction.
    assert!(!cache.invalidate(&base));
    assert_eq!(cache.stats().invalidations, 1);

    // The surviving view answers from cache; the evicted one re-characterizes
    // (one more miss, counted once).
    atlas(&faulted, &demo_faults);
    assert_eq!((cache.stats().hits, cache.stats().misses), (1, 2));
    atlas(&base, base_faults);
    assert_eq!((cache.stats().hits, cache.stats().misses), (1, 3));
    assert!(cache.contains(&base), "same view must map to the same key");
    assert_eq!(cache.len(), 2);
}

#[test]
fn arming_a_fault_plan_over_the_wire_swaps_views_without_flushing() {
    let svc = service(3);
    let server = spawn(Arc::clone(&svc), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(&server.addr().to_string()).unwrap();
    let predict = Request::Predict { device: None, target: 7, mode: WireMode::Write, mix: vec![(6, 1)] };

    // (hits, misses) as the `stats` reply reports them.
    let counts = || {
        let s = svc.cache().stats();
        (s.hits, s.misses)
    };
    // Warm the healthy view.
    let healthy = match client.call(&predict).unwrap() {
        Response::Predict { predicted_gbps, .. } => predicted_gbps,
        other => panic!("unexpected reply: {other:?}"),
    };
    assert_eq!(counts(), (0, 1), "the healthy view paid one miss");
    // Arm the demo plan: the old (healthy) key is the one eviction.
    match client.call(&Request::SetFaults { plan: FaultPlan::demo(42) }).unwrap() {
        Response::Faults { active, invalidated } => {
            assert!(active > 0);
            assert!(invalidated, "arming faults must evict the stale healthy key");
        }
        other => panic!("unexpected reply: {other:?}"),
    }
    // The degraded view characterizes fresh and answers differently.
    let degraded = match client.call(&predict).unwrap() {
        Response::Predict { predicted_gbps, .. } => predicted_gbps,
        other => panic!("unexpected reply: {other:?}"),
    };
    assert_eq!(counts(), (0, 2), "the degraded view paid its own miss");
    assert!(
        degraded < healthy,
        "demo faults (link degrade + IRQ storm) must cost bandwidth: {degraded} vs {healthy}"
    );
    // And the degraded view is itself memoized.
    match client.call(&predict).unwrap() {
        Response::Predict { predicted_gbps, .. } => {
            assert_eq!(predicted_gbps.to_bits(), degraded.to_bits());
        }
        other => panic!("unexpected reply: {other:?}"),
    }
    assert_eq!(counts(), (1, 2), "the repeat is a hit");
    assert_eq!(svc.cache().stats().invalidations, 1);
    server.shutdown();
}

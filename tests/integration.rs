//! Cross-crate integration tests: the full pipeline from allocator to
//! simulator, on small budgets suitable for debug-mode CI.

use whirlpool::{PoolAllocator, VcRegistry};
use whirlpool_repro::harness::{four_core_config, Experiment, SchemeKind};
use wp_noc::CoreId;
use wp_sim::{LlcScheme, WorkloadBundle};
use wp_workloads::{registry, AppModel, AppSpec, Pattern, PoolSpec};

/// A small dt-like spec that converges quickly in debug builds.
fn small_dt() -> AppSpec {
    AppSpec::steady(
        "small-dt",
        vec![
            PoolSpec::new("points", 128 * 1024, Pattern::Uniform),
            PoolSpec::new("vertices", 384 * 1024, Pattern::Uniform),
            PoolSpec::new("triangles", 1024 * 1024, Pattern::Uniform),
        ],
        &[8.0, 8.0, 9.0],
        25.0,
        7,
    )
}

#[test]
fn every_scheme_runs_the_same_workload() {
    let kinds = [
        SchemeKind::SNucaLru,
        SchemeKind::SNucaDrrip,
        SchemeKind::IdealSpd,
        SchemeKind::Awasthi,
        SchemeKind::Jigsaw,
        SchemeKind::JigsawNoBypass,
        SchemeKind::Whirlpool,
        SchemeKind::WhirlpoolNoBypass,
    ];
    for kind in kinds {
        let mut sys = four_core_config();
        sys.reconfig_interval_cycles = 500_000;
        let model = AppModel::new(small_dt());
        let pools = if kind.uses_pools() {
            model.descriptors_manual()
        } else {
            Vec::new()
        };
        let out = Experiment::bundles(kind, vec![model.bundle(pools)])
            .system(sys)
            .measure(1_000_000)
            .run()
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        assert!(out.cores[0].instructions >= 1_000_000, "{kind:?}");
        assert!(out.cores[0].llc_apki() > 5.0, "{kind:?}");
        assert!(out.energy.total_nj() > 0.0, "{kind:?}");
    }
}

#[test]
fn allocator_to_scheme_page_flow() {
    // Pages allocated through the public API are exactly the pages the
    // scheme sees in the descriptors.
    let mut alloc = PoolAllocator::new();
    let pool = alloc.pool_create("grid");
    let a = alloc.pool_malloc(64 * 1024, pool);
    let descs = alloc.descriptors();
    assert_eq!(descs.len(), 1);
    assert!(descs[0].pages.contains(&a.page()));
    // Feed them to Whirlpool: a VC must be created for the pool.
    let sys = four_core_config();
    let mut scheme = whirlpool::scheme(sys);
    scheme.attach_core(CoreId(0), &descs);
    let labels: Vec<String> = scheme.vcs().iter().map(|v| v.label()).collect();
    assert!(labels.contains(&"grid".to_string()));
}

#[test]
fn syscall_layer_matches_allocator_pages() {
    let mut reg = VcRegistry::new(4);
    let vc = reg.sys_vc_alloc(1).unwrap();
    let mut alloc = PoolAllocator::new();
    let pool = alloc.pool_create("data");
    let addr = alloc.pool_malloc(3 * 4096, pool);
    reg.sys_vc_tag(1, addr, 3 * 4096, vc).unwrap();
    for off in [0u64, 4096, 2 * 4096] {
        assert_eq!(reg.page_table().vc_of_addr(addr.offset(off)), Some(vc));
    }
}

#[test]
fn multicore_mix_runs_and_reports_all_cores() {
    let mut sys = four_core_config();
    sys.reconfig_interval_cycles = 500_000;
    let bundles = (0..4u16)
        .map(|c| {
            let model = AppModel::new(small_dt());
            WorkloadBundle {
                trace: Box::new(model.trace_seeded(c as u64)),
                pools: vec![],
                name: format!("app{c}"),
            }
        })
        .collect();
    let out = Experiment::bundles(SchemeKind::Jigsaw, bundles)
        .system(sys)
        .measure(500_000)
        .run()
        .expect("bespoke 4-core mix");
    for c in 0..4 {
        assert!(out.cores[c].instructions >= 500_000);
        assert!(out.cores[c].ipc() > 0.0);
    }
}

#[test]
fn registry_apps_have_valid_manual_classifications() {
    // Every Table 2 app key present in the registry produces pools whose
    // pages are disjoint and non-empty.
    for key in ["BFS", "delaunay", "MIS", "lbm", "mcf", "cactus"] {
        let model = AppModel::new(registry::spec(key));
        let descs = model.descriptors_manual();
        assert!(!descs.is_empty(), "{key}");
        let mut seen = std::collections::HashSet::new();
        for d in &descs {
            assert!(!d.pages.is_empty(), "{key}/{}", d.name);
            for p in &d.pages {
                assert!(seen.insert(*p), "{key}: page in two pools");
            }
        }
    }
}

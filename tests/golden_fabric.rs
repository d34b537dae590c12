//! Golden-stats pin for the non-default fabrics.
//!
//! `golden_micro15` pins the default single-device 4x4 system; this file
//! pins the shapes it does not cover: the cross-device microbenchmarks
//! (XDEV_D, XDEV_S, XPC) on a two-device fabric under every config, and
//! two benchmarks on a non-square 2x8 mesh. A routing, link-timing or
//! contention change in the interconnect moves these stats even when the
//! 4x4 golden stays put. Regenerate (only when an intentional behaviour
//! change lands) with:
//!
//! ```text
//! GSIM_BLESS_GOLDEN=1 cargo test --test golden_fabric
//! ```

use gsim_core::{Simulator, SystemConfig};
use gsim_harness::FabricSpec;
use gsim_noc::{MeshConfig, Topology};
use gsim_types::ProtocolConfig;
use gsim_workloads::{registry, Scale};

const GOLDEN_PATH: &str = "tests/golden/fabric_simstats.json";

/// Two 4x4 devices joined by 40-cycle inter-device links.
fn two_devices(p: ProtocolConfig) -> SystemConfig {
    FabricSpec::new(2, 40).system(p)
}

/// The paper's system on a single 8-column, 2-row mesh (one L2 bank per
/// node, as on the 4x4).
fn mesh_2x8(p: ProtocolConfig) -> SystemConfig {
    let mut cfg = SystemConfig::micro15(p);
    cfg.topology = Topology::single(MeshConfig::grid(8, 2));
    cfg.l2.banks = cfg.topology.nodes();
    cfg
}

/// `(shape name, benchmarks, system)`: the cross-device benchmarks on
/// two devices, and two Table 4 benchmarks on the 2x8 mesh.
type Shape = (
    &'static str,
    &'static [&'static str],
    fn(ProtocolConfig) -> SystemConfig,
);
const SHAPES: [Shape; 2] = [
    ("2dev", &["XDEV_D", "XDEV_S", "XPC"], two_devices),
    ("2x8", &["BP", "SPM_G"], mesh_2x8),
];

/// One `"SHAPE/BENCH/CONFIG": <stats json>` line per cell, in a fixed
/// order, so diffs name the exact cell that drifted.
fn current_snapshot() -> String {
    let mut lines = Vec::new();
    for (shape, benches, system) in SHAPES {
        for &bench in benches {
            let b = registry::by_name(bench).expect("registered benchmark");
            for config in ProtocolConfig::ALL {
                let stats = Simulator::new(system(config))
                    .run(&(b.build)(Scale::Tiny))
                    .unwrap_or_else(|e| panic!("{bench} under {config} on {shape}: {e}"));
                lines.push(format!("\"{shape}/{bench}/{config}\": {}", stats.to_json()));
            }
        }
    }
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

#[test]
fn fabric_stats_match_the_golden() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    let got = current_snapshot();
    if std::env::var("GSIM_BLESS_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {GOLDEN_PATH} ({e}); bless it first"));
    if got != want {
        for (g, w) in got.lines().zip(want.lines()) {
            assert_eq!(g, w, "fabric stats drifted from the golden");
        }
        panic!("fabric stats drifted from the golden (length)");
    }
}

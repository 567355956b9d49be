//! Pins the profile of every catalog workload by value.
//!
//! `tests/sync_semantics.rs` pins six hand-written programs; this suite
//! pins what the profiler's collectors (micro-trace ILP/MLP and branch
//! resolution, branch entropy, reuse distances) make of the whole catalog:
//! an FNV-1a digest of `profile(..).to_json()` for each of the 30 workloads
//! at scale 0.02, seed 1, must equal the constant captured before the
//! collectors were rewritten. A deliberate change to what the profiler
//! measures must re-capture them; the failure message prints the new table.

use rppm::profiler::profile;
use rppm::workloads::{self, Params};

/// FNV-1a, 64-bit, of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(workload, digest of its profile JSON)`, catalog order.
const DIGESTS: [(&str, u64); 30] = [
    ("backprop", 0xcff052ffe1256a6b),
    ("bfs", 0x7b93e8f536c2950f),
    ("cfd", 0xd69e63deef988057),
    ("heartwall", 0x5b32c53e4e06901f),
    ("hotspot", 0x56e512fb9730b078),
    ("kmeans", 0xc2c63d1a82363e41),
    ("lavamd", 0xf7885bef3442728a),
    ("leukocyte", 0xabbf51b857dc023f),
    ("lud", 0xe35e2bdecd11cdb3),
    ("myocyte", 0xd5c3ba900e113d60),
    ("nn", 0x7dab23ee8f71b907),
    ("nw", 0x46673e53c5dd14a6),
    ("particlefilter", 0x4313c27d3fb06d2c),
    ("pathfinder", 0x5fc263bf54d872b4),
    ("srad", 0x81cf3df53f74ca5f),
    ("streamcluster", 0x92014b48e8a20ba0),
    ("hotspot3d", 0x6e27fcb18b168b9a),
    ("btree", 0xfc0492f72a940727),
    ("blackscholes", 0xd57cdb6b308de2a2),
    ("bodytrack", 0x6e3a2f0af966bc9f),
    ("canneal", 0x799faa494204a86f),
    ("facesim", 0x0a9f88cbb7ab3067),
    ("fluidanimate", 0x73518050d1c0d12e),
    ("freqmine", 0x44264187093ac5e2),
    ("raytrace", 0xa84acc4b4966e319),
    ("streamcluster_p", 0x3e79bddffe933965),
    ("swaptions", 0x742e6e7999ae2c28),
    ("vips", 0xf35c116c38c3a84b),
    ("dedup", 0x71279d9028575b47),
    ("ferret", 0xf10cca06532dddec),
];

#[test]
fn catalog_profiles_match_pinned_digests() {
    let params = Params {
        scale: 0.02,
        seed: 1,
    };
    let got: Vec<(&str, u64)> = workloads::all()
        .iter()
        .map(|b| {
            let json = profile(&b.build(&params)).to_json();
            (b.name, fnv1a(json.as_bytes()))
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),\n"))
        .collect();
    assert_eq!(
        got.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        DIGESTS.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        "catalog order changed"
    );
    let drifted: Vec<&str> = got
        .iter()
        .zip(&DIGESTS)
        .filter(|(g, w)| g.1 != w.1)
        .map(|(g, _)| g.0)
        .collect();
    assert!(
        drifted.is_empty(),
        "profiles drifted for {drifted:?}; digests now:\n{table}"
    );
}

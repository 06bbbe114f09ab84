//! Golden digests of the boundary attack's output.
//!
//! Each constant is an FNV-1a digest over the exact bit pattern of
//! every feature and label [`BoundaryAttack::generate`] (or a
//! three-allocation [`MixedRadiusAttack`]) produces for a fixed clean
//! set and rng seed. Any change to the placement geometry, the radius
//! resolution or the order of rng draws moves a digest, so a
//! performance rewrite of the attack must leave every one unchanged.

use poisongame_attack::{
    AnchorScope, AttackStrategy, BoundaryAttack, CentroidKind, MixedRadiusAttack, RadiusAllocation,
    RadiusSpec, TargetClass,
};
use poisongame_data::synth::gaussian_blobs;
use poisongame_data::{ContentHash, Dataset, Label};
use poisongame_linalg::Xoshiro256StarStar;
use rand::SeedableRng;

/// Odd, so `Alternate` claims one more positive than negative point.
const N_POINTS: usize = 9;

fn clean() -> Dataset {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x601D);
    gaussian_blobs(120, 5, 3.0, 0.8, &mut rng)
}

fn digest(poison: &Dataset) -> u64 {
    let mut h = ContentHash::new()
        .u64(poison.len() as u64)
        .u64(poison.dim() as u64);
    for v in poison.features().as_slice() {
        h = h.f64(*v);
    }
    for label in poison.labels() {
        h = h.u64(u64::from(*label == Label::Positive));
    }
    h.finish()
}

fn run(attack: &dyn AttackStrategy, clean: &Dataset) -> u64 {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xB0DA);
    let poison = attack
        .generate(clean, N_POINTS, &mut rng)
        .expect("attack generates");
    assert_eq!(poison.len(), N_POINTS);
    digest(&poison)
}

#[test]
fn boundary_attack_digests_are_pinned() {
    use AnchorScope::{Global, PerClass};
    use CentroidKind::{CoordinateMedian, Mean};
    use TargetClass::{Alternate, Negative, Positive};
    let golden: [(AnchorScope, TargetClass, CentroidKind, u64); 12] = [
        (Global, Positive, CoordinateMedian, 0xf263_a5f2_9695_d09c),
        (Global, Positive, Mean, 0xa4f1_335a_7b9f_3d03),
        (Global, Negative, CoordinateMedian, 0xde0e_554a_aecf_c99a),
        (Global, Negative, Mean, 0xad48_7237_0115_3e85),
        (Global, Alternate, CoordinateMedian, 0xd5aa_44e4_63ca_5d6a),
        (Global, Alternate, Mean, 0x40a5_1baa_085d_67f0),
        (PerClass, Positive, CoordinateMedian, 0xbb32_3a99_ec31_3f0c),
        (PerClass, Positive, Mean, 0xbb07_3cf4_926e_5677),
        (PerClass, Negative, CoordinateMedian, 0x0d91_5cd8_f57c_87aa),
        (PerClass, Negative, Mean, 0xbd37_4dc2_8b11_1920),
        (PerClass, Alternate, CoordinateMedian, 0xc3bd_67d5_4c77_97df),
        (PerClass, Alternate, Mean, 0x78cd_ea40_8fa1_6879),
    ];
    let data = clean();
    let mut mismatches = Vec::new();
    for (anchor, target, centroid, expected) in golden {
        let attack = BoundaryAttack::new(RadiusSpec::Percentile(0.1))
            .with_anchor(anchor)
            .with_target(target)
            .with_centroid(centroid);
        let got = run(&attack, &data);
        if got != expected {
            mismatches.push(format!(
                "({anchor:?}, {target:?}, {centroid:?}, {got:#018x})"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "boundary attack output moved:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn mixed_radius_attack_digest_is_pinned() {
    let attack = MixedRadiusAttack::new(vec![
        RadiusAllocation {
            spec: RadiusSpec::Percentile(0.02),
            count: 4,
        },
        RadiusAllocation {
            spec: RadiusSpec::Absolute(2.5),
            count: 2,
        },
        RadiusAllocation {
            spec: RadiusSpec::Percentile(0.3),
            count: 3,
        },
    ]);
    assert_eq!(
        run(&attack, &clean()),
        0xb5de_58a7_2b82_fa0c,
        "mixed-radius attack output moved"
    );
}

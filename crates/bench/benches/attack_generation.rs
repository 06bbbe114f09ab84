//! Ablation bench: poison-synthesis throughput for each attack family.

use criterion::{criterion_group, criterion_main, Criterion};
use poisongame_attack::{
    AnchorScope, AttackStrategy, BoundaryAttack, LabelFlipAttack, MixedRadiusAttack,
    RadiusAllocation, RadiusSpec, RandomNoiseAttack, TargetClass,
};
use poisongame_bench::bench_dataset;
use poisongame_linalg::Xoshiro256StarStar;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_attacks(c: &mut Criterion) {
    let data = bench_dataset(1200);
    let n_poison = 240; // the 20 % budget at this scale
    let mut group = c.benchmark_group("attack_generation");

    group.bench_function("boundary", |b| {
        let attack = BoundaryAttack::new(RadiusSpec::Percentile(0.05));
        b.iter(|| {
            let mut rng = Xoshiro256StarStar::seed_from_u64(1);
            let poison = attack
                .generate(black_box(&data), n_poison, &mut rng)
                .expect("attack generates");
            black_box(poison.len())
        })
    });

    // Per-class anchors with alternating claims: both radius slots.
    group.bench_function("boundary_per_class_alternate", |b| {
        let attack = BoundaryAttack::new(RadiusSpec::Percentile(0.05))
            .with_anchor(AnchorScope::PerClass)
            .with_target(TargetClass::Alternate);
        b.iter(|| {
            let mut rng = Xoshiro256StarStar::seed_from_u64(5);
            let poison = attack
                .generate(black_box(&data), n_poison, &mut rng)
                .expect("attack generates");
            black_box(poison.len())
        })
    });

    group.bench_function("mixed_radius_3", |b| {
        let attack = MixedRadiusAttack::new(vec![
            RadiusAllocation {
                spec: RadiusSpec::Percentile(0.05),
                count: 80,
            },
            RadiusAllocation {
                spec: RadiusSpec::Percentile(0.10),
                count: 80,
            },
            RadiusAllocation {
                spec: RadiusSpec::Percentile(0.20),
                count: 80,
            },
        ]);
        b.iter(|| {
            let mut rng = Xoshiro256StarStar::seed_from_u64(2);
            let poison = attack
                .generate(black_box(&data), n_poison, &mut rng)
                .expect("attack generates");
            black_box(poison.len())
        })
    });

    group.bench_function("label_flip", |b| {
        let attack = LabelFlipAttack::new();
        b.iter(|| {
            let mut rng = Xoshiro256StarStar::seed_from_u64(3);
            let poison = attack
                .generate(black_box(&data), n_poison, &mut rng)
                .expect("attack generates");
            black_box(poison.len())
        })
    });

    group.bench_function("random_noise", |b| {
        let attack = RandomNoiseAttack::new();
        b.iter(|| {
            let mut rng = Xoshiro256StarStar::seed_from_u64(4);
            let poison = attack
                .generate(black_box(&data), n_poison, &mut rng)
                .expect("attack generates");
            black_box(poison.len())
        })
    });

    group.finish();
}

criterion_group!(benches, bench_attacks);
criterion_main!(benches);

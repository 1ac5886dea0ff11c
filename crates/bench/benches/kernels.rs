//! Micro-benchmarks of the numerical kernels every method is built on:
//! Sinkhorn iterations, linear assignment, and the fast `L ⊗ π` tensor
//! product (the decomposition of Appendix E.2, over adjacency nonzeros).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ged_linalg::{lsap_min, lsap_min_munkres, Matrix};
use ged_ot::gw::{gw_tensor_apply, gw_tensor_apply_naive};
use ged_ot::sinkhorn::{sinkhorn, sinkhorn_dummy_row};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn rand_matrix(n: usize, m: usize, seed: u64) -> Matrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    Matrix::from_fn(n, m, |_, _| rng.gen_range(0.0..2.0))
}

fn rand_adjacency(n: usize, seed: u64) -> Matrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut a = Matrix::zeros(n, n);
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(0.3) {
                a[(i, j)] = 1.0;
                a[(j, i)] = 1.0;
            }
        }
    }
    a
}

fn bench_sinkhorn(c: &mut Criterion) {
    let mut group = c.benchmark_group("sinkhorn");
    for &n in &[10usize, 30, 100] {
        let cost = rand_matrix(n, n, 1);
        let mu = vec![1.0; n];
        let nu = vec![1.0; n];
        group.bench_with_input(BenchmarkId::new("balanced_5it", n), &n, |b, _| {
            b.iter(|| black_box(sinkhorn(&cost, &mu, &nu, 0.05, 5)));
        });
        let rect = rand_matrix(n, n + n / 2, 2);
        group.bench_with_input(BenchmarkId::new("dummy_row_5it", n), &n, |b, _| {
            b.iter(|| black_box(sinkhorn_dummy_row(&rect, 0.05, 5)));
        });
    }
    group.finish();
}

fn bench_lsap(c: &mut Criterion) {
    let mut group = c.benchmark_group("lsap");
    for &n in &[10usize, 50, 150] {
        let cost = rand_matrix(n, n, 3);
        group.bench_with_input(BenchmarkId::new("jonker_volgenant", n), &n, |b, _| {
            b.iter(|| black_box(lsap_min(&cost)));
        });
        group.bench_with_input(BenchmarkId::new("munkres", n), &n, |b, _| {
            b.iter(|| black_box(lsap_min_munkres(&cost)));
        });
    }
    group.finish();
}

fn bench_gw_tensor(c: &mut Criterion) {
    let mut group = c.benchmark_group("gw_tensor");
    for &n in &[10usize, 30, 60] {
        let a1 = rand_adjacency(n, 4);
        let a2 = rand_adjacency(n, 5);
        let pi = rand_matrix(n, n, 6).scale(1.0 / n as f64);
        group.bench_with_input(BenchmarkId::new("fast_o_n3", n), &n, |b, _| {
            b.iter(|| black_box(gw_tensor_apply(&a1, &a2, &pi)));
        });
        if n <= 30 {
            group.bench_with_input(BenchmarkId::new("naive_o_n4", n), &n, |b, _| {
                b.iter(|| black_box(gw_tensor_apply_naive(&a1, &a2, &pi)));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_sinkhorn, bench_lsap, bench_gw_tensor);
criterion_main!(benches);

//! The fast f32 sigmoid arms against the exact chain, on every f32.
//!
//! Each fast arm keeps its f64 value only where the rounding test proves
//! that the exact chain narrows to the same f32; every other block, and
//! every block holding a NaN, is recomputed by the exact arm. The window
//! behind that test rests on two error bounds, so the proof that it holds is
//! this sweep: all 2^32 bit patterns through every arm the host runs, each
//! output equal bit for bit to the exact arm's, and every 256th also to the
//! scalar `math::sigmoid(x as f64) as f32`. Release only (about 20 s per arm
//! on two cores); a debug build runs the strided form below instead.
#![cfg(target_arch = "x86_64")]

use kml_core::simd::testing as arms;
use std::sync::atomic::{AtomicU64, Ordering};

/// Elements per arm call: 4,109 = 128 four-block AVX-512 groups, one single
/// block and a 5-lane tail (256 AVX2 groups, three blocks, a 1-lane tail),
/// so every call takes every path of both arms.
const CHUNK: usize = 4_109;

/// The exact-chain arm of `arm`.
fn exact(arm: &str) -> fn(&[f32], &mut [f32]) -> bool {
    match arm {
        "avx2" => arms::avx2_sigmoid_f32_exact,
        "avx512" => arms::avx512_sigmoid_f32_exact,
        other => panic!("no exact arm for {other}"),
    }
}

fn scalar(x: f32) -> f32 {
    kml_core::math::sigmoid(x as f64) as f32
}

/// Inputs that sit on the edges of the fast route: signed zeros,
/// infinities, NaN payloads of both signs, subnormals, the saturation
/// bounds (18 and −104), where σ narrows to 1.0 (≈ 17.33) and to 0.0
/// (≈ −103.97), where it leaves the f32 normals (≈ −87.34), each with its
/// f32 neighbours, and the first inputs the full sweep sends to the exact
/// chain.
fn edges() -> Vec<f32> {
    let mut v: Vec<f32> = [
        0x0000_0000u32,
        0x8000_0000,
        0x7f80_0000,
        0xff80_0000,
        0x7fc0_0000,
        0xffc0_0000,
        0x7f80_0001,
        0xff80_0001,
        0x7fbf_ffff,
        0x7fc0_0001,
        0xffff_ffff,
        0x0000_0001,
        0x8000_0001,
        0x0040_0000,
        0x007f_ffff,
        0x807f_ffff,
        0x0080_0000,
    ]
    .map(f32::from_bits)
    .to_vec();
    for centre in [-104.0f32, 18.0, -87.34, 17.328_68, -103.972_08] {
        for d in -2i32..=2 {
            v.push(f32::from_bits(centre.to_bits().wrapping_add_signed(d)));
        }
    }
    v.extend(FIRST_FALLBACKS.map(f32::from_bits));
    v
}

/// The first inputs in bit order whose lane fails the rounding test on the
/// AVX-512 arm: x just above 2^-23, where σ(x) ≈ 0.5 + x/4 lies within
/// 2^-40 of the rounding boundary 0.5 + 2^-25.
const FIRST_FALLBACKS: [u32; 8] = [
    0x33ff_ff01,
    0x33ff_ff02,
    0x33ff_ff03,
    0x33ff_ff04,
    0x33ff_ff05,
    0x33ff_ff06,
    0x33ff_ff07,
    0x33ff_ff08,
];

/// Runs `arm` over `xs`, pattern `base` first, and checks each output
/// against the exact arm and, for every `scalar_every`-th pattern, against
/// the scalar function. Returns (fallback blocks, mismatches).
fn check(
    arm: &str,
    xs: &[f32],
    base: u64,
    scalar_every: u64,
    out: &mut [f32],
    want: &mut [f32],
) -> (u64, u64) {
    let fell = arms::sigmoid_f32_fallbacks(arm, xs, out).expect("arm available") as u64;
    assert!(exact(arm)(xs, want));
    let mut bad = 0u64;
    for (i, ((&x, &y), &w)) in xs.iter().zip(&*out).zip(&*want).enumerate() {
        let ok = y.to_bits() == w.to_bits()
            && (!(base + i as u64).is_multiple_of(scalar_every)
                || y.to_bits() == scalar(x).to_bits());
        if !ok {
            if bad < 8 {
                eprintln!(
                    "{arm}: x = {x:e} ({:#010x}): fast {:#010x}, exact {:#010x}, scalar {:#010x}",
                    x.to_bits(),
                    y.to_bits(),
                    w.to_bits(),
                    scalar(x).to_bits()
                );
            }
            bad += 1;
        }
    }
    (fell, bad)
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn every_f32_bit_pattern_matches_the_exact_chain() {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    for arm in arms::available_arms() {
        let next = AtomicU64::new(0);
        let (fell, bad) = (AtomicU64::new(0), AtomicU64::new(0));
        let t0 = std::time::Instant::now();
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    let (mut xs, mut out, mut want) =
                        (Vec::new(), vec![0.0; CHUNK], vec![0.0; CHUNK]);
                    loop {
                        let lo = next.fetch_add(CHUNK as u64, Ordering::Relaxed);
                        if lo >= 1 << 32 {
                            break;
                        }
                        let hi = (lo + CHUNK as u64).min(1 << 32);
                        xs.clear();
                        xs.extend((lo..hi).map(|b| f32::from_bits(b as u32)));
                        let n = xs.len();
                        let (f, b) = check(arm, &xs, lo, 256, &mut out[..n], &mut want[..n]);
                        fell.fetch_add(f, Ordering::Relaxed);
                        bad.fetch_add(b, Ordering::Relaxed);
                    }
                });
            }
        });
        println!(
            "{arm}: 2^32 patterns in {:.1} s on {threads} threads, {} blocks fell back, {} mismatches",
            t0.elapsed().as_secs_f64(),
            fell.into_inner(),
            bad.load(Ordering::Relaxed)
        );
        assert_eq!(
            bad.into_inner(),
            0,
            "{arm}: fast arm diverged from the exact chain"
        );
    }
}

/// Every 4,093rd bit pattern and the edges, in every arm, against the exact
/// arm and the scalar function: the sweep's cheap form for debug builds.
#[test]
fn strided_patterns_and_edges_match_the_exact_chain() {
    let mut xs: Vec<f32> = (0..1u64 << 32)
        .step_by(4_093)
        .map(|b| f32::from_bits(b as u32))
        .collect();
    xs.extend(edges());
    let (mut out, mut want) = (vec![0.0; xs.len()], vec![0.0; xs.len()]);
    for arm in arms::available_arms() {
        let (_, bad) = check(arm, &xs, 0, 1, &mut out, &mut want);
        assert_eq!(bad, 0, "{arm}: fast arm diverged");
        // Each edge alone too: a one-lane tail block.
        for &x in &edges() {
            let (_, bad) = check(arm, &[x], 0, 1, &mut [0.0], &mut [0.0]);
            assert_eq!(bad, 0, "{arm}: fast arm diverged at {x:e} alone");
        }
    }
}

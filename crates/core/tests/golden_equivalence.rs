//! Bit-identity gate for the characterized (ROM) model.
//!
//! `GoldenModel::characterize` builds one normal matrix shared by all five
//! surfaces (upper triangle accumulated, then mirrored) and evaluates the
//! basis once per grid point; `ln_frequency` evaluates it term by term
//! without a heap buffer. This file keeps the naive formulation as
//! an in-test reference — full per-surface normal equations over stored
//! samples and a per-term `powi` basis — and requires the library to match
//! it bit for bit: every coefficient, the worst fit error, and `ln f` at
//! random environments inside and outside (clamped) the characterized box.

use ptsim_core::bank::{BankSpec, RoBank, RoClass};
use ptsim_core::golden::{CharacterizationSpace, GoldenModel};
use ptsim_core::newton::solve_linear;
use ptsim_device::inverter::CmosEnv;
use ptsim_device::process::Technology;
use ptsim_device::units::{Celsius, Kelvin, Volt};
use ptsim_rng::{forall, Pcg64, Rng};

/// The naive characterized model.
struct Reference {
    space: CharacterizationSpace,
    indices: Vec<Vec<usize>>,
    /// `(class, vdd, coefficients)` per surface, in characterization order.
    surfaces: Vec<(RoClass, Volt, Vec<f64>)>,
    worst_fit: f64,
}

fn multi_indices(dims: usize, degree: usize) -> Vec<Vec<usize>> {
    fn rec(dims: usize, degree: usize, prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if dims == 0 {
            out.push(prefix.clone());
            return;
        }
        for d in 0..=degree {
            prefix.push(d);
            rec(dims - 1, degree - d, prefix, out);
            prefix.pop();
        }
    }
    let mut out = Vec::new();
    rec(dims, degree, &mut Vec::new(), &mut out);
    out
}

fn basis(indices: &[Vec<usize>], x: &[f64]) -> Vec<f64> {
    indices
        .iter()
        .map(|mi| {
            let mut term = 1.0;
            for (p, xi) in mi.iter().zip(x) {
                term *= xi.powi(*p as i32);
            }
            term
        })
        .collect()
}

fn inv_kelvin_bounds(space: &CharacterizationSpace) -> (f64, f64) {
    let (t0, t1) = space.temp_range;
    (
        1.0 / Celsius(t1).to_kelvin().0,
        1.0 / Celsius(t0).to_kelvin().0,
    )
}

fn denormalize(space: &CharacterizationSpace, x: &[f64]) -> CmosEnv {
    let (u0, u1) = inv_kelvin_bounds(space);
    let u = u0 + (x[4] + 1.0) / 2.0 * (u1 - u0);
    CmosEnv {
        temp: Kelvin(1.0 / u).to_celsius(),
        d_vtn: Volt(x[0] * space.vt_span),
        d_vtp: Volt(x[1] * space.vt_span),
        mu_n: (x[2] * space.ln_mu_span).exp(),
        mu_p: (x[3] * space.ln_mu_span).exp(),
    }
}

fn normalize(space: &CharacterizationSpace, env: &CmosEnv) -> [f64; 5] {
    let (u0, u1) = inv_kelvin_bounds(space);
    let u = 1.0 / env.temp.to_kelvin().0;
    [
        (env.d_vtn.0 / space.vt_span).clamp(-1.1, 1.1),
        (env.d_vtp.0 / space.vt_span).clamp(-1.1, 1.1),
        (env.mu_n.ln() / space.ln_mu_span).clamp(-1.1, 1.1),
        (env.mu_p.ln() / space.ln_mu_span).clamp(-1.1, 1.1),
        (((u - u0) / (u1 - u0) * 2.0 - 1.0).clamp(-1.1, 1.1)),
    ]
}

impl Reference {
    fn characterize(tech: &Technology, spec: BankSpec, space: CharacterizationSpace) -> Self {
        let bank = RoBank::new(tech, spec).unwrap();
        let plan = [
            (RoClass::PsroN, spec.vdd_high),
            (RoClass::PsroN, spec.vdd_low),
            (RoClass::PsroP, spec.vdd_high),
            (RoClass::PsroP, spec.vdd_low),
            (RoClass::Tsro, spec.vdd_tsro),
        ];
        let indices = multi_indices(5, space.degree);
        let n = indices.len();
        let p = space.points_per_axis;
        let axis = |i: usize| -1.0 + 2.0 * i as f64 / (p - 1) as f64;
        let mut surfaces = Vec::new();
        let mut worst_fit: f64 = 0.0;
        for (class, vdd) in plan {
            let mut ata = vec![0.0; n * n];
            let mut atb = vec![0.0; n];
            let mut samples: Vec<(Vec<f64>, f64)> = Vec::new();
            for i0 in 0..p {
                for i1 in 0..p {
                    for i2 in 0..p {
                        for i3 in 0..p {
                            for i4 in 0..p {
                                let x = [axis(i0), axis(i1), axis(i2), axis(i3), axis(i4)];
                                let env = denormalize(&space, &x);
                                let lnf = bank.frequency(tech, class, vdd, &env).0.ln();
                                let b = basis(&indices, &x);
                                for r in 0..n {
                                    for c in 0..n {
                                        ata[r * n + c] += b[r] * b[c];
                                    }
                                    atb[r] += b[r] * lnf;
                                }
                                samples.push((x.to_vec(), lnf));
                            }
                        }
                    }
                }
            }
            solve_linear(&mut ata, &mut atb, n, "reference fit").unwrap();
            for (x, lnf) in &samples {
                let pred: f64 = basis(&indices, x)
                    .iter()
                    .zip(&atb)
                    .map(|(b, c)| b * c)
                    .sum();
                worst_fit = worst_fit.max((pred - lnf).abs());
            }
            surfaces.push((class, vdd, atb));
        }
        Reference {
            space,
            indices,
            surfaces,
            worst_fit,
        }
    }

    fn ln_frequency(&self, coeffs: &[f64], env: &CmosEnv) -> f64 {
        let x = normalize(&self.space, env);
        basis(&self.indices, &x)
            .iter()
            .zip(coeffs)
            .map(|(b, c)| b * c)
            .sum()
    }
}

/// An environment up to 1.5× beyond the characterized box on every process
/// axis and 30 °C beyond its temperature range, so some land in the
/// clamped extrapolation band.
fn random_env(space: &CharacterizationSpace, rng: &mut Pcg64) -> CmosEnv {
    let vt = 1.5 * space.vt_span;
    let mu = 1.5 * space.ln_mu_span;
    CmosEnv {
        temp: Celsius(rng.gen_range(space.temp_range.0 - 30.0..space.temp_range.1 + 30.0)),
        d_vtn: Volt(rng.gen_range(-vt..vt)),
        d_vtp: Volt(rng.gen_range(-vt..vt)),
        mu_n: rng.gen_range(-mu..mu).exp(),
        mu_p: rng.gen_range(-mu..mu).exp(),
    }
}

forall! {
    #![cases = 6]

    #[test]
    fn characterized_model_is_bit_identical_to_the_naive_fit(
        degree in 2usize..5,
        extra_points in 0usize..3,
        vt_span in 0.03f64..0.08,
        ln_mu_span in 0.1f64..0.3,
        t_lo in -40.0f64..0.0,
        t_hi in 60.0f64..125.0,
        env_seed in 0u64..1_000_000,
    ) {
        let space = CharacterizationSpace {
            vt_span,
            ln_mu_span,
            temp_range: (t_lo, t_hi),
            points_per_axis: (degree + 1 + extra_points).min(5),
            degree,
        };
        let tech = Technology::n65();
        let spec = BankSpec::default_65nm();
        let model = GoldenModel::characterize(&tech, spec, space).unwrap();
        let naive = Reference::characterize(&tech, spec, space);

        assert_eq!(
            model.worst_fit_error().to_bits(),
            naive.worst_fit.to_bits(),
            "worst fit error {} vs reference {}",
            model.worst_fit_error(),
            naive.worst_fit
        );
        let mut rng = Pcg64::seed_from_u64(env_seed);
        for (class, vdd, coeffs) in &naive.surfaces {
            let fitted = model.coefficients(*class, *vdd).unwrap();
            assert_eq!(fitted.len(), coeffs.len());
            for (k, (a, b)) in fitted.iter().zip(coeffs).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{} coefficient {k}: {a} vs {b}", class.name());
            }
            for _ in 0..16 {
                let env = random_env(&space, &mut rng);
                let got = model.ln_frequency(*class, *vdd, &env).unwrap();
                let want = naive.ln_frequency(coeffs, &env);
                assert_eq!(got.to_bits(), want.to_bits(), "{} at {env:?}: {got} vs {want}", class.name());
            }
        }
    }
}

//! Design-time characterized ("golden") oscillator model.
//!
//! The analytic compact model in [`crate::bank`] plays the role of SPICE.
//! Real sensor hardware cannot evaluate SPICE on-chip: at design time each
//! oscillator is characterized across (ΔVtn, ΔVtp, µn, µp, T) and the
//! resulting **polynomial surfaces** are what the ROM/datapath evaluates.
//! This module builds those surfaces by least-squares fitting on a
//! characterization grid, so the sensor can run in a hardware-faithful mode
//! where model *fit* error is part of the error budget (ablation A1 wires
//! this in; see `tbl_ablation`).
//!
//! Each surface fits `ln f` in normalized coordinates with a total-degree-
//! bounded multivariate polynomial basis.

use crate::bank::{BankSpec, RoBank, RoClass};
use crate::error::SensorError;
use crate::newton::solve_linear;
use ptsim_device::inverter::CmosEnv;
use ptsim_device::process::Technology;
use ptsim_device::units::{Celsius, Volt};

/// Normalization spans of the characterization space.
///
/// A valid space has at least two grid points per axis, a total degree
/// below `points_per_axis` (a `p`-point axis determines powers up to
/// `p − 1` only) and at most [`MAX_DEGREE`], finite positive spans and an
/// ordered, finite temperature range above absolute zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CharacterizationSpace {
    /// Threshold-shift half-range, volts (surfaces valid over ±this).
    pub vt_span: f64,
    /// ln-mobility half-range (±this around 0).
    pub ln_mu_span: f64,
    /// Temperature range, °C.
    pub temp_range: (f64, f64),
    /// Grid points per axis.
    pub points_per_axis: usize,
    /// Total polynomial degree of the fitted surfaces.
    pub degree: usize,
}

impl Default for CharacterizationSpace {
    fn default() -> Self {
        CharacterizationSpace {
            vt_span: 0.060,
            ln_mu_span: 0.25,
            temp_range: (-25.0, 105.0),
            points_per_axis: 6,
            degree: 5,
        }
    }
}

/// Normalized coordinates of the characterization space:
/// (ΔVtn, ΔVtp, ln µn, ln µp, 1/T).
const DIMS: usize = 5;

/// Highest total polynomial degree a surface may have. A degree-`d` fit
/// needs at least `(d + 1)⁵` grid points, so degree 8 already means a
/// 59,049-point characterization; the bound also keeps every exponent well
/// inside the `u8` multi-index storage.
pub const MAX_DEGREE: usize = 8;

/// Exponents of one basis monomial, one per normalized coordinate.
type MultiIndex = [u8; DIMS];

/// Multi-indices of total degree ≤ `degree` over the first `dims`
/// coordinates (the remaining exponents stay zero), in lexicographic order.
fn multi_indices(dims: usize, degree: usize) -> Vec<MultiIndex> {
    fn rec(pos: usize, dims: usize, degree: usize, mi: &mut MultiIndex, out: &mut Vec<MultiIndex>) {
        if pos == dims {
            out.push(*mi);
            return;
        }
        for d in 0..=degree {
            mi[pos] = d as u8;
            rec(pos + 1, dims, degree - d, mi, out);
        }
        mi[pos] = 0;
    }
    let mut out = Vec::new();
    rec(0, dims, degree, &mut [0; DIMS], &mut out);
    out
}

/// One basis monomial `∏ xᵢ^pᵢ`: the factors multiply in coordinate order
/// starting from `1.0`, each one a `powi`.
fn term(mi: &MultiIndex, x: &[f64; DIMS]) -> f64 {
    let mut t = 1.0;
    for (&p, xi) in mi.iter().zip(x) {
        t *= xi.powi(i32::from(p));
    }
    t
}

/// Every basis monomial at one point, in `indices` order.
fn eval_basis(indices: &[MultiIndex], x: &[f64; DIMS], out: &mut [f64]) {
    for (b, mi) in out.iter_mut().zip(indices) {
        *b = term(mi, x);
    }
}

/// Coordinates of grid point `k` of the `p`-per-axis grid over `[-1,1]⁵`;
/// `k` runs with the last coordinate fastest.
fn grid_point(p: usize, mut k: usize) -> [f64; DIMS] {
    let mut x = [0.0; DIMS];
    for xi in x.iter_mut().rev() {
        *xi = -1.0 + 2.0 * (k % p) as f64 / (p - 1) as f64;
        k /= p;
    }
    x
}

/// One fitted `ln f` surface.
#[derive(Debug, Clone, PartialEq)]
struct Surface {
    class: RoClass,
    vdd: Volt,
    coeffs: Vec<f64>,
    /// Worst |ln f| residual on the characterization grid.
    fit_max: f64,
}

/// The characterized model: one surface per (oscillator, supply) pair the
/// sensor measures.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenModel {
    space: CharacterizationSpace,
    indices: Vec<MultiIndex>,
    surfaces: Vec<Surface>,
}

impl GoldenModel {
    /// Characterizes the bank: sweeps the 5-axis grid, evaluates the
    /// analytic model (the "SPICE" stand-in), and least-squares fits each
    /// surface.
    ///
    /// The design matrix depends only on the grid, so the five surfaces
    /// share one normal matrix `AᵀA`: a single grid pass evaluates the
    /// basis once per point, accumulates the upper triangle of `AᵀA` (the
    /// lower one is its mirror — each element is the same commuted products
    /// summed in grid order) and one `Aᵀb` per surface.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidConfig`] for a space that cannot
    /// determine its surfaces (see [`CharacterizationSpace`]), and
    /// propagates bank construction and linear-solve failures.
    pub fn characterize(
        tech: &Technology,
        bank_spec: BankSpec,
        space: CharacterizationSpace,
    ) -> Result<Self, SensorError> {
        space.validate()?;
        let bank = RoBank::new(tech, bank_spec)?;
        let plan = [
            (RoClass::PsroN, bank_spec.vdd_high),
            (RoClass::PsroN, bank_spec.vdd_low),
            (RoClass::PsroP, bank_spec.vdd_high),
            (RoClass::PsroP, bank_spec.vdd_low),
            (RoClass::Tsro, bank_spec.vdd_tsro),
        ];
        let indices = multi_indices(DIMS, space.degree);
        let n_coef = indices.len();
        let p = space.points_per_axis;
        let n_points = p.pow(DIMS as u32);

        // Accumulate the shared normal matrix and the per-surface right-hand
        // sides AᵀA x = Aᵀb over the grid, keeping each sample's ln f for the
        // fit-quality pass.
        let mut ata = vec![0.0; n_coef * n_coef];
        let mut atb = vec![vec![0.0; n_coef]; plan.len()];
        let mut lnf = Vec::with_capacity(n_points * plan.len());
        let mut basis = vec![0.0; n_coef];
        for k in 0..n_points {
            let x = grid_point(p, k);
            eval_basis(&indices, &x, &mut basis);
            for (r, &br) in basis.iter().enumerate() {
                let row = &mut ata[r * n_coef..(r + 1) * n_coef];
                for (a, &bc) in row[r..].iter_mut().zip(&basis[r..]) {
                    *a += br * bc;
                }
            }
            let env = space.denormalize(&x);
            for ((class, vdd), rhs) in plan.iter().zip(&mut atb) {
                let y = bank.frequency(tech, *class, *vdd, &env).0.ln();
                for (a, &b) in rhs.iter_mut().zip(&basis) {
                    *a += b * y;
                }
                lnf.push(y);
            }
        }
        for r in 1..n_coef {
            for c in 0..r {
                ata[r * n_coef + c] = ata[c * n_coef + r];
            }
        }

        let mut a = vec![0.0; n_coef * n_coef];
        let mut surfaces = Vec::with_capacity(plan.len());
        for (&(class, vdd), mut coeffs) in plan.iter().zip(atb) {
            a.copy_from_slice(&ata);
            solve_linear(&mut a, &mut coeffs, n_coef, "golden-model fit")?;
            surfaces.push(Surface {
                class,
                vdd,
                coeffs,
                fit_max: 0.0,
            });
        }

        // Fit-quality bookkeeping, recomputing each grid point's basis.
        for (k, ys) in lnf.chunks_exact(plan.len()).enumerate() {
            eval_basis(&indices, &grid_point(p, k), &mut basis);
            for (surf, &y) in surfaces.iter_mut().zip(ys) {
                let pred: f64 = basis.iter().zip(&surf.coeffs).map(|(b, c)| b * c).sum();
                surf.fit_max = surf.fit_max.max((pred - y).abs());
            }
        }
        Ok(GoldenModel {
            space,
            indices,
            surfaces,
        })
    }

    /// Characterization space.
    #[must_use]
    pub fn space(&self) -> &CharacterizationSpace {
        &self.space
    }

    /// Worst ln-frequency fit error across all surfaces (on the training
    /// grid).
    #[must_use]
    pub fn worst_fit_error(&self) -> f64 {
        self.surfaces.iter().map(|s| s.fit_max).fold(0.0, f64::max)
    }

    /// Fitted coefficients of the (class, vdd) surface — the ROM contents —
    /// in basis order (multi-indices of total degree ≤ `degree` over
    /// `(ΔVtn, ΔVtp, ln µn, ln µp, 1/T)`, lexicographic).
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidConfig`] if the (class, vdd) pair was
    /// not characterized.
    pub fn coefficients(&self, class: RoClass, vdd: Volt) -> Result<&[f64], SensorError> {
        self.surfaces
            .iter()
            .find(|s| s.class == class && (s.vdd.0 - vdd.0).abs() < 1e-9)
            .map(|s| s.coeffs.as_slice())
            .ok_or(SensorError::InvalidConfig {
                name: "uncharacterized (class, vdd) pair",
                value: vdd.0,
            })
    }

    /// Predicted `ln f` for an oscillator/supply pair under a hypothesized
    /// process/temperature state. Allocation-free: the basis is evaluated
    /// term by term inside the dot product.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidConfig`] if the (class, vdd) pair was
    /// not characterized.
    pub fn ln_frequency(
        &self,
        class: RoClass,
        vdd: Volt,
        env: &CmosEnv,
    ) -> Result<f64, SensorError> {
        let coeffs = self.coefficients(class, vdd)?;
        let x = self.space.normalize(env);
        Ok(self
            .indices
            .iter()
            .zip(coeffs)
            .map(|(mi, c)| term(mi, &x) * c)
            .sum())
    }
}

impl CharacterizationSpace {
    /// Rejects a space whose surfaces the grid cannot determine.
    fn validate(&self) -> Result<(), SensorError> {
        let invalid = |name, value| Err(SensorError::InvalidConfig { name, value });
        if self.points_per_axis < 2 {
            return invalid(
                "characterization.points_per_axis",
                self.points_per_axis as f64,
            );
        }
        if self.degree > MAX_DEGREE {
            return invalid(
                "characterization.degree (above MAX_DEGREE)",
                self.degree as f64,
            );
        }
        if self.degree >= self.points_per_axis {
            return invalid(
                "characterization.degree (not below points_per_axis)",
                self.degree as f64,
            );
        }
        for (name, span) in [
            ("characterization.vt_span", self.vt_span),
            ("characterization.ln_mu_span", self.ln_mu_span),
        ] {
            if !(span.is_finite() && span > 0.0) {
                return invalid(name, span);
            }
        }
        let (t0, t1) = self.temp_range;
        if !(t0 > -273.15 && t0 < t1 && t1.is_finite()) {
            return invalid("characterization.temp_range", t0);
        }
        Ok(())
    }

    /// The temperature axis is parameterized linearly in **inverse absolute
    /// temperature**: near-threshold ring delay is exponential in
    /// `Vt/(n·kT/q) ∝ 1/T`, so this substitution makes the fitted surfaces
    /// nearly polynomial and cuts the fit error by an order of magnitude
    /// compared with a linear-in-°C axis.
    fn inv_kelvin_bounds(&self) -> (f64, f64) {
        let (t0, t1) = self.temp_range;
        // Note: hotter temperature = smaller 1/T; keep (lo, hi) ordered.
        (
            1.0 / Celsius(t1).to_kelvin().0,
            1.0 / Celsius(t0).to_kelvin().0,
        )
    }

    /// Maps normalized grid coordinates `[-1,1]⁵` to a model environment.
    fn denormalize(&self, x: &[f64; DIMS]) -> CmosEnv {
        let (u0, u1) = self.inv_kelvin_bounds();
        let u = u0 + (x[4] + 1.0) / 2.0 * (u1 - u0);
        CmosEnv {
            temp: ptsim_device::units::Kelvin(1.0 / u).to_celsius(),
            d_vtn: Volt(x[0] * self.vt_span),
            d_vtp: Volt(x[1] * self.vt_span),
            mu_n: (x[2] * self.ln_mu_span).exp(),
            mu_p: (x[3] * self.ln_mu_span).exp(),
        }
    }

    /// Maps a model environment into normalized coordinates (clamped to the
    /// characterized box).
    fn normalize(&self, env: &CmosEnv) -> [f64; DIMS] {
        // Allow 10% extrapolation beyond the characterized box so the
        // decoupling solver's finite-difference Jacobian never flattens to
        // zero at the box edge (polynomials extrapolate smoothly over such
        // a short distance).
        let (u0, u1) = self.inv_kelvin_bounds();
        let u = 1.0 / env.temp.to_kelvin().0;
        [
            (env.d_vtn.0 / self.vt_span).clamp(-1.1, 1.1),
            (env.d_vtp.0 / self.vt_span).clamp(-1.1, 1.1),
            (env.mu_n.ln() / self.ln_mu_span).clamp(-1.1, 1.1),
            (env.mu_p.ln() / self.ln_mu_span).clamp(-1.1, 1.1),
            (((u - u0) / (u1 - u0) * 2.0 - 1.0).clamp(-1.1, 1.1)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cheap space for structural unit tests (the full default space is
    /// exercised in release mode by the A1 ablation bench).
    fn test_space() -> CharacterizationSpace {
        CharacterizationSpace {
            degree: 4,
            points_per_axis: 5,
            ..CharacterizationSpace::default()
        }
    }

    fn golden() -> (Technology, RoBank, GoldenModel) {
        let tech = Technology::n65();
        let spec = BankSpec::default_65nm();
        let bank = RoBank::new(&tech, spec).unwrap();
        let model = GoldenModel::characterize(&tech, spec, test_space()).unwrap();
        (tech, bank, model)
    }

    #[test]
    fn multi_indices_counts_match_combinatorics() {
        // C(dims+degree, degree) terms of total degree <= degree.
        assert_eq!(multi_indices(5, 4).len(), 126);
        assert_eq!(multi_indices(5, 3).len(), 56);
        assert_eq!(multi_indices(2, 2).len(), 6);
        assert_eq!(multi_indices(1, 4).len(), 5);
    }

    #[test]
    fn fit_error_small_on_grid() {
        let (_, _, model) = golden();
        // Degree-4 over the full (wide) box: a few percent worst-case at
        // the extreme corners; the default degree-5 space used by the
        // sensor is several times tighter (exercised by the A1 ablation).
        assert!(
            model.worst_fit_error() < 6e-2,
            "worst fit error {}",
            model.worst_fit_error()
        );
    }

    #[test]
    fn prediction_matches_analytic_off_grid() {
        let (tech, bank, model) = golden();
        let spec = *bank.spec();
        let env = CmosEnv {
            temp: Celsius(37.3),
            d_vtn: Volt(0.0137),
            d_vtp: Volt(-0.0082),
            mu_n: 1.021,
            mu_p: 0.984,
        };
        for (class, vdd) in [
            (RoClass::PsroN, spec.vdd_low),
            (RoClass::PsroP, spec.vdd_high),
            (RoClass::Tsro, spec.vdd_tsro),
        ] {
            let truth = bank.frequency(&tech, class, vdd, &env).0.ln();
            let pred = model.ln_frequency(class, vdd, &env).unwrap();
            // Mild interior point: far better than the box-corner worst case.
            assert!(
                (pred - truth).abs() < 3e-3,
                "{}: pred {pred:.5} vs truth {truth:.5}",
                class.name()
            );
        }
    }

    #[test]
    fn uncharacterized_pair_rejected() {
        let (_, _, model) = golden();
        let env = CmosEnv::nominal();
        assert!(model.ln_frequency(RoClass::Tsro, Volt(0.77), &env).is_err());
    }

    #[test]
    fn normalization_round_trip_center() {
        let space = CharacterizationSpace::default();
        let env = space.denormalize(&[0.0, 0.0, 0.0, 0.0, 0.0]);
        assert!(env.d_vtn.0.abs() < 1e-12);
        assert!((env.mu_n - 1.0).abs() < 1e-12);
        let x = space.normalize(&env);
        assert!(x.iter().all(|v| v.abs() < 1e-9));
    }

    #[test]
    fn normalization_clamps_outside_box() {
        let space = CharacterizationSpace::default();
        let env = CmosEnv {
            d_vtn: Volt(1.0),
            ..CmosEnv::nominal()
        };
        assert_eq!(space.normalize(&env)[0], 1.1);
    }

    fn rejected(space: CharacterizationSpace) -> &'static str {
        let tech = Technology::n65();
        match GoldenModel::characterize(&tech, BankSpec::default_65nm(), space) {
            Err(SensorError::InvalidConfig { name, .. }) => name,
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn single_point_axis_rejected() {
        let space = CharacterizationSpace {
            degree: 1,
            points_per_axis: 1,
            ..test_space()
        };
        assert_eq!(rejected(space), "characterization.points_per_axis");
    }

    #[test]
    fn degree_not_below_points_per_axis_rejected() {
        let space = CharacterizationSpace {
            degree: 3,
            points_per_axis: 3,
            ..test_space()
        };
        assert_eq!(
            rejected(space),
            "characterization.degree (not below points_per_axis)"
        );
    }

    #[test]
    fn degree_above_max_degree_rejected() {
        let space = CharacterizationSpace {
            degree: MAX_DEGREE + 1,
            points_per_axis: MAX_DEGREE + 4,
            ..test_space()
        };
        assert_eq!(
            rejected(space),
            "characterization.degree (above MAX_DEGREE)"
        );
    }

    #[test]
    fn non_positive_or_non_finite_spans_rejected() {
        for bad in [0.0, -0.01, f64::NAN, f64::INFINITY] {
            let vt = CharacterizationSpace {
                vt_span: bad,
                ..test_space()
            };
            assert_eq!(rejected(vt), "characterization.vt_span", "vt_span {bad}");
            let mu = CharacterizationSpace {
                ln_mu_span: bad,
                ..test_space()
            };
            assert_eq!(
                rejected(mu),
                "characterization.ln_mu_span",
                "ln_mu_span {bad}"
            );
        }
    }

    #[test]
    fn unordered_temp_range_rejected() {
        for range in [
            (105.0, -25.0),
            (25.0, 25.0),
            (f64::NAN, 105.0),
            (-300.0, 25.0),
        ] {
            let space = CharacterizationSpace {
                temp_range: range,
                ..test_space()
            };
            assert_eq!(rejected(space), "characterization.temp_range", "{range:?}");
        }
    }

    #[test]
    fn default_and_test_spaces_are_valid() {
        assert!(CharacterizationSpace::default().validate().is_ok());
        assert!(test_space().validate().is_ok());
    }

    #[test]
    fn lower_degree_fits_worse() {
        let tech = Technology::n65();
        let spec = BankSpec::default_65nm();
        let d2 = GoldenModel::characterize(
            &tech,
            spec,
            CharacterizationSpace {
                degree: 2,
                ..test_space()
            },
        )
        .unwrap();
        let d4 = GoldenModel::characterize(&tech, spec, test_space()).unwrap();
        assert!(d2.worst_fit_error() > d4.worst_fit_error());
    }
}

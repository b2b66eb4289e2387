//! The two-path Fourier neural operator (Figure 3 of the paper).

use crate::layers::{gelu_backward, gelu_forward, Pointwise, Spectral, SpectralCtx};
use crate::param::ParamStore;
use crate::spectral_util::PlanCache;
use crate::NnError;

/// Architecture hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FnoConfig {
    /// Channel width of the hidden feature maps.
    pub width: usize,
    /// Number of low-frequency modes kept per axis in the spectral path.
    pub modes: usize,
    /// Number of stacked FNO blocks.
    pub num_layers: usize,
    /// Hidden width of the projection head.
    pub proj_hidden: usize,
}

impl FnoConfig {
    /// The paper-scale configuration (~471k parameters — the paper quotes
    /// 471k, 60% of a U-Net; this instantiation lands within 1.5% of it).
    pub fn paper() -> Self {
        FnoConfig {
            width: 17,
            modes: 10,
            num_layers: 4,
            proj_hidden: 128,
        }
    }

    /// A tiny configuration for tests and fast demos.
    pub fn tiny() -> Self {
        FnoConfig {
            width: 4,
            modes: 3,
            num_layers: 2,
            proj_hidden: 8,
        }
    }

    fn validate(&self) -> Result<(), NnError> {
        if self.width == 0 || self.modes == 0 || self.num_layers == 0 || self.proj_hidden == 0 {
            return Err(NnError::InvalidConfig(
                "width, modes, num_layers and proj_hidden must all be positive".into(),
            ));
        }
        Ok(())
    }
}

/// Forward activations saved for one backward pass.
#[derive(Debug, Default, Clone)]
struct ForwardCtx {
    h: usize,
    w: usize,
    input: Vec<f64>,
    lifted: Vec<f64>,
    /// Per block: (block input, pre-activation sum, spectral context).
    blocks: Vec<(Vec<f64>, Vec<f64>, SpectralCtx)>,
    proj_in: Vec<f64>,
    proj_mid_pre: Vec<f64>,
    proj_mid: Vec<f64>,
}

/// The Xplace-NN model: lift -> N x (spatial 1x1 conv + spectral path,
/// GELU) -> projection head -> one field channel.
///
/// Input is the 3-channel map `{D; M_x; M_y}` (density plus the two
/// normalized mesh-grid coordinate channels); output is the x-direction
/// electric field. The y field is obtained by transposing the input
/// (see [`crate::FnoGuidance`]), exploiting the PDE's symmetry as §3.3
/// describes.
#[derive(Debug, Clone)]
pub struct Fno {
    config: FnoConfig,
    store: ParamStore,
    lift: Pointwise,
    blocks: Vec<(Pointwise, Spectral)>,
    proj1: Pointwise,
    proj2: Pointwise,
    cache: PlanCache,
    ctx: ForwardCtx,
}

impl Fno {
    /// Creates a model with randomly initialized parameters.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for degenerate configurations.
    pub fn new(config: &FnoConfig, seed: u64) -> Result<Self, NnError> {
        config.validate()?;
        let mut store = ParamStore::new(seed);
        let lift = Pointwise::new(&mut store, 3, config.width);
        let mut blocks = Vec::with_capacity(config.num_layers);
        for _ in 0..config.num_layers {
            let conv = Pointwise::new(&mut store, config.width, config.width);
            let spec = Spectral::new(&mut store, config.width, config.width, config.modes);
            blocks.push((conv, spec));
        }
        let proj1 = Pointwise::new(&mut store, config.width, config.proj_hidden);
        let proj2 = Pointwise::new(&mut store, config.proj_hidden, 1);
        Ok(Fno {
            config: *config,
            store,
            lift,
            blocks,
            proj1,
            proj2,
            cache: PlanCache::default(),
            ctx: ForwardCtx::default(),
        })
    }

    /// The architecture.
    pub fn config(&self) -> &FnoConfig {
        &self.config
    }

    /// Total trainable parameter count.
    pub fn num_params(&self) -> usize {
        self.store.len()
    }

    /// Borrows the parameter store (for the trainer).
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn check_grid(&self, h: usize, w: usize) -> Result<(), NnError> {
        if !xplace_fft::is_power_of_two(h) || !xplace_fft::is_power_of_two(w) {
            return Err(NnError::InvalidInput(format!(
                "grid {h}x{w} must have power-of-two dimensions"
            )));
        }
        if 2 * self.config.modes > h || self.config.modes > w {
            return Err(NnError::InvalidInput(format!(
                "grid {h}x{w} too small for {} kept modes",
                self.config.modes
            )));
        }
        Ok(())
    }

    /// Builds the 3-channel input `{D; M_x; M_y}` from a density map.
    pub fn build_input(density: &[f64], h: usize, w: usize) -> Vec<f64> {
        let hw = h * w;
        let mut input = vec![0.0; 3 * hw];
        input[..hw].copy_from_slice(density);
        for r in 0..h {
            for c in 0..w {
                input[hw + r * w + c] = r as f64 / h as f64;
                input[2 * hw + r * w + c] = c as f64 / w as f64;
            }
        }
        input
    }

    /// Full forward pass on a 3-channel input, saving activations for
    /// [`Fno::backward`]. Returns the single-channel field prediction.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidInput`] for unsupported grid sizes.
    pub fn forward(&mut self, input: &[f64], h: usize, w: usize) -> Result<Vec<f64>, NnError> {
        self.check_grid(h, w)?;
        let hw = h * w;
        if input.len() != 3 * hw {
            return Err(NnError::InvalidInput(format!(
                "expected 3x{hw} input values, got {}",
                input.len()
            )));
        }
        let mut ctx = ForwardCtx {
            h,
            w,
            input: input.to_vec(),
            ..Default::default()
        };
        let lifted = self.lift.forward(&self.store, input, hw);
        ctx.lifted = lifted.clone();
        let mut x = lifted;
        for (conv, spec) in &self.blocks {
            let spatial = conv.forward(&self.store, &x, hw);
            let (freq, sctx) = spec.forward(&self.store, &mut self.cache, &x, h, w);
            let mut pre: Vec<f64> = spatial;
            for (p, f) in pre.iter_mut().zip(&freq) {
                *p += f;
            }
            let activated = gelu_forward(&pre);
            ctx.blocks.push((x, pre, sctx));
            x = activated;
        }
        ctx.proj_in = x.clone();
        let mid_pre = self.proj1.forward(&self.store, &x, hw);
        let mid = gelu_forward(&mid_pre);
        ctx.proj_mid_pre = mid_pre;
        ctx.proj_mid = mid.clone();
        let out = self.proj2.forward(&self.store, &mid, hw);
        self.ctx = ctx;
        Ok(out)
    }

    /// Backward pass for the most recent [`Fno::forward`] call:
    /// accumulates parameter gradients for the output gradient `gy`.
    ///
    /// # Panics
    ///
    /// Panics if no forward pass has been run or `gy` has the wrong size.
    pub fn backward(&mut self, gy: &[f64]) {
        let h = self.ctx.h;
        let w = self.ctx.w;
        assert!(h > 0, "backward called before forward");
        let hw = h * w;
        assert_eq!(gy.len(), hw, "output gradient size mismatch");

        let g_mid = self
            .proj2
            .backward(&mut self.store, &self.ctx.proj_mid, gy, hw);
        let g_mid_pre = gelu_backward(&self.ctx.proj_mid_pre, &g_mid);
        let mut gx = self
            .proj1
            .backward(&mut self.store, &self.ctx.proj_in, &g_mid_pre, hw);

        for (k, (conv, spec)) in self.blocks.iter().enumerate().rev() {
            let (block_in, pre, sctx) = &self.ctx.blocks[k];
            let g_pre = gelu_backward(pre, &gx);
            let g_spatial = conv.backward(&mut self.store, block_in, &g_pre, hw);
            let g_freq = spec.backward(&mut self.store, &mut self.cache, sctx, &g_pre);
            gx = g_spatial;
            for (a, b) in gx.iter_mut().zip(&g_freq) {
                *a += b;
            }
        }
        self.lift
            .backward(&mut self.store, &self.ctx.input, &gx, hw);
    }

    /// Convenience inference: builds the `{D; M_x; M_y}` input from a
    /// density map and returns the predicted x-direction field.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidInput`] for unsupported grid sizes.
    pub fn predict_field_x(
        &mut self,
        density: &[f64],
        h: usize,
        w: usize,
    ) -> Result<Vec<f64>, NnError> {
        if density.len() != h * w {
            return Err(NnError::InvalidInput(format!(
                "density has {} samples for a {h}x{w} grid",
                density.len()
            )));
        }
        let input = Self::build_input(density, h, w);
        self.forward(&input, h, w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_parameter_count_is_about_471k() {
        let fno = Fno::new(&FnoConfig::paper(), 1).unwrap();
        let n = fno.num_params();
        assert!(
            (440_000..=500_000).contains(&n),
            "parameter count {n} not within 6% of the paper's 471k"
        );
    }

    #[test]
    fn tiny_config_runs_forward_and_backward() {
        let mut fno = Fno::new(&FnoConfig::tiny(), 2).unwrap();
        let (h, w) = (16, 16);
        let density: Vec<f64> = (0..h * w).map(|i| (i as f64 * 0.05).sin()).collect();
        let y = fno.predict_field_x(&density, h, w).unwrap();
        assert_eq!(y.len(), h * w);
        assert!(y.iter().all(|v| v.is_finite()));
        let gy = vec![1.0; h * w];
        fno.backward(&gy);
        assert!(fno.store_mut().grad_norm() > 0.0);
    }

    #[test]
    fn invalid_configs_and_inputs_are_rejected() {
        let bad = FnoConfig {
            width: 0,
            ..FnoConfig::tiny()
        };
        assert!(Fno::new(&bad, 1).is_err());
        let mut fno = Fno::new(&FnoConfig::tiny(), 1).unwrap();
        // Non-power-of-two grid.
        assert!(fno.predict_field_x(&vec![0.0; 15 * 15], 15, 15).is_err());
        // Too small for modes (2*3 > 4).
        assert!(fno.predict_field_x(&[0.0; 16], 4, 4).is_err());
        // Wrong buffer length.
        assert!(fno.predict_field_x(&[0.0; 10], 16, 16).is_err());
    }

    #[test]
    fn full_model_gradient_matches_finite_differences() {
        let mut fno = Fno::new(&FnoConfig::tiny(), 3).unwrap();
        let (h, w) = (8, 8);
        let density: Vec<f64> = (0..h * w).map(|i| (i as f64 * 0.11).cos()).collect();
        let input = Fno::build_input(&density, h, w);
        let loss = |fno: &mut Fno| -> f64 {
            let y = fno.forward(&input, h, w).unwrap();
            y.iter().map(|v| v * v).sum()
        };
        // Analytic gradient.
        let y = fno.forward(&input, h, w).unwrap();
        fno.store_mut().zero_grads();
        let gy: Vec<f64> = y.iter().map(|v| 2.0 * v).collect();
        fno.backward(&gy);
        // Probe parameters across all layer types.
        let n = fno.num_params();
        let picks = [0usize, 13, n / 4, n / 2, 3 * n / 4, n - 1];
        let eps = 1e-6;
        for &i in &picks {
            fno.store_mut().nudge(i, eps);
            let plus = loss(&mut fno);
            fno.store_mut().nudge(i, -2.0 * eps);
            let minus = loss(&mut fno);
            fno.store_mut().nudge(i, eps);
            let fd = (plus - minus) / (2.0 * eps);
            let analytic = fno.store_mut().grad_at(i);
            assert!(
                (fd - analytic).abs() < 1e-4 * fd.abs().max(1.0),
                "param {i}: fd {fd} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn model_is_resolution_independent_in_shape() {
        // The same weights run on 16x16 and 32x32 grids.
        let mut fno = Fno::new(&FnoConfig::tiny(), 4).unwrap();
        let d16: Vec<f64> = (0..256).map(|i| (i as f64 * 0.02).sin()).collect();
        let d32: Vec<f64> = (0..1024).map(|i| (i as f64 * 0.01).sin()).collect();
        assert_eq!(fno.predict_field_x(&d16, 16, 16).unwrap().len(), 256);
        assert_eq!(fno.predict_field_x(&d32, 32, 32).unwrap().len(), 1024);
    }

    #[test]
    fn mesh_channels_encode_normalized_coordinates() {
        let input = Fno::build_input(&[0.0; 16], 4, 4);
        // M_x channel at row 2 is 0.5.
        assert_eq!(input[16 + 2 * 4 + 1], 0.5);
        // M_y channel at column 3 is 0.75.
        assert_eq!(input[32 + 4 + 3], 0.75);
    }

    #[test]
    fn same_seed_same_predictions() {
        let mut a = Fno::new(&FnoConfig::tiny(), 9).unwrap();
        let mut b = Fno::new(&FnoConfig::tiny(), 9).unwrap();
        let d: Vec<f64> = (0..256).map(|i| (i as f64).sin()).collect();
        assert_eq!(
            a.predict_field_x(&d, 16, 16).unwrap(),
            b.predict_field_x(&d, 16, 16).unwrap()
        );
    }
}

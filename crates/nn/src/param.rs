//! Flat parameter storage with gradients and an Adam optimizer.

use xplace_testkit::Rng;

/// All trainable parameters of a model, stored flat, with matching
/// gradient and Adam-moment buffers. Layers allocate contiguous slices at
/// construction and address them by offset.
#[derive(Debug, Clone)]
pub struct ParamStore {
    values: Vec<f64>,
    grads: Vec<f64>,
    m: Vec<f64>,
    v: Vec<f64>,
    step: u64,
    rng: Rng,
}

impl ParamStore {
    /// Creates an empty store seeded for reproducible initialization.
    pub fn new(seed: u64) -> Self {
        ParamStore {
            values: Vec::new(),
            grads: Vec::new(),
            m: Vec::new(),
            v: Vec::new(),
            step: 0,
            rng: Rng::seed_from_u64(seed),
        }
    }

    /// Allocates `count` parameters initialized uniformly in
    /// `[-scale, scale]`; returns the slice offset.
    pub fn alloc(&mut self, count: usize, scale: f64) -> usize {
        let offset = self.values.len();
        for _ in 0..count {
            self.values.push((self.rng.f64() * 2.0 - 1.0) * scale);
        }
        self.grads.resize(self.values.len(), 0.0);
        self.m.resize(self.values.len(), 0.0);
        self.v.resize(self.values.len(), 0.0);
        offset
    }

    /// Total parameter count.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when no parameters are allocated.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Borrows a parameter slice.
    pub fn get(&self, offset: usize, count: usize) -> &[f64] {
        &self.values[offset..offset + count]
    }

    /// Borrows a parameter slice together with its gradient slice.
    pub fn get_with_grad(&mut self, offset: usize, count: usize) -> (&[f64], &mut [f64]) {
        let (values, grads) = (&self.values, &mut self.grads);
        (
            &values[offset..offset + count],
            &mut grads[offset..offset + count],
        )
    }

    /// Zeroes all gradients.
    pub fn zero_grads(&mut self) {
        self.grads.fill(0.0);
    }

    /// The L2 norm of the gradient vector.
    pub fn grad_norm(&self) -> f64 {
        self.grads.iter().map(|g| g * g).sum::<f64>().sqrt()
    }

    /// One Adam step (β1 = 0.9, β2 = 0.999, ε = 1e-8).
    pub fn adam_step(&mut self, lr: f64) {
        self.step += 1;
        let (b1, b2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
        let bc1 = 1.0 - b1.powi(self.step as i32);
        let bc2 = 1.0 - b2.powi(self.step as i32);
        for i in 0..self.values.len() {
            let g = self.grads[i];
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g;
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * g * g;
            let m_hat = self.m[i] / bc1;
            let v_hat = self.v[i] / bc2;
            self.values[i] -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }

    /// Directly perturbs one parameter (used by finite-difference tests).
    pub fn nudge(&mut self, index: usize, delta: f64) {
        self.values[index] += delta;
    }

    /// Reads one parameter's gradient (used by finite-difference tests).
    pub fn grad_at(&self, index: usize) -> f64 {
        self.grads[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_reproducible_per_seed() {
        let mut a = ParamStore::new(5);
        let mut b = ParamStore::new(5);
        let oa = a.alloc(16, 0.1);
        let ob = b.alloc(16, 0.1);
        assert_eq!(a.get(oa, 16), b.get(ob, 16));
        let mut c = ParamStore::new(6);
        let oc = c.alloc(16, 0.1);
        assert_ne!(a.get(oa, 16), c.get(oc, 16));
    }

    #[test]
    fn init_respects_scale() {
        let mut s = ParamStore::new(1);
        let o = s.alloc(1000, 0.05);
        assert!(s.get(o, 1000).iter().all(|v| v.abs() <= 0.05));
    }

    #[test]
    fn adam_minimizes_a_quadratic() {
        let mut s = ParamStore::new(2);
        let o = s.alloc(3, 1.0);
        for _ in 0..500 {
            s.zero_grads();
            let vals: Vec<f64> = s.get(o, 3).to_vec();
            let (_, grads) = s.get_with_grad(o, 3);
            for (g, v) in grads.iter_mut().zip(&vals) {
                *g = 2.0 * (v - 3.0); // d/dv (v-3)^2
            }
            s.adam_step(0.05);
        }
        for &v in s.get(o, 3) {
            assert!((v - 3.0).abs() < 0.01, "v = {v}");
        }
    }

    #[test]
    fn zero_grads_and_norm() {
        let mut s = ParamStore::new(3);
        let o = s.alloc(4, 1.0);
        {
            let (_, g) = s.get_with_grad(o, 4);
            g.fill(3.0);
        }
        assert!((s.grad_norm() - 6.0).abs() < 1e-12);
        s.zero_grads();
        assert_eq!(s.grad_norm(), 0.0);
    }
}

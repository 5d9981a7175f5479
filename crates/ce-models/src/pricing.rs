//! AWS Lambda function pricing (the `p_f` and `p_ivk` of Table III).

/// Per-function pricing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FunctionPricing {
    /// Dollars per GB-second of execution (`p_f` before memory scaling).
    pub per_gb_second: f64,
    /// Dollars per invocation (`p_ivk`).
    pub per_invocation: f64,
}

impl FunctionPricing {
    /// AWS Lambda list prices (us-east-1): $0.0000166667 per GB-s and
    /// $0.20 per million requests.
    pub fn aws_default() -> Self {
        FunctionPricing {
            per_gb_second: 1.66667e-5,
            per_invocation: 2.0e-7,
        }
    }

    /// Dollars per second for one function of `memory_mb` MB — the
    /// memory-scaled `p_f(m)` of Eq. 4.
    pub fn per_second(&self, memory_mb: u32) -> f64 {
        self.per_gb_second * f64::from(memory_mb) / 1024.0
    }

    /// Dollars to run `n` functions of `memory_mb` MB for `secs` seconds,
    /// excluding invocation fees.
    pub fn compute_cost(&self, n: u32, memory_mb: u32, secs: f64) -> f64 {
        f64::from(n) * self.per_second(memory_mb) * secs
    }

    /// Dollars to invoke `n` functions once.
    pub fn invocation_cost(&self, n: u32) -> f64 {
        f64::from(n) * self.per_invocation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gb_second_scaling() {
        let p = FunctionPricing::aws_default();
        // 1769 MB for 1 s: 1769/1024 GB-s.
        let expect = 1.66667e-5 * 1769.0 / 1024.0;
        assert!((p.per_second(1769) - expect).abs() < 1e-15);
    }

    #[test]
    fn compute_cost_linear_in_everything() {
        let p = FunctionPricing::aws_default();
        let base = p.compute_cost(1, 1024, 1.0);
        assert!((p.compute_cost(2, 1024, 1.0) - 2.0 * base).abs() < 1e-15);
        assert!((p.compute_cost(1, 2048, 1.0) - 2.0 * base).abs() < 1e-15);
        assert!((p.compute_cost(1, 1024, 3.0) - 3.0 * base).abs() < 1e-15);
    }

    #[test]
    fn invocation_cost_counts_functions() {
        let p = FunctionPricing::aws_default();
        assert!((p.invocation_cost(1_000_000) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn one_gb_one_second_is_list_price() {
        let p = FunctionPricing::aws_default();
        assert!((p.compute_cost(1, 1024, 1.0) - 1.66667e-5).abs() < 1e-12);
    }
}

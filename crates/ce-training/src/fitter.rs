//! Least-squares loss-curve fitting.
//!
//! The fitter assumes the inverse-power convergence family
//! `σ(e) = floor + (initial − floor) / (1 + rate·e)` with a *known*
//! initial loss (the loss of the untrained model, observable before
//! training starts) and fits `(floor, rate)` to the noisy per-epoch
//! history by a 33 × 49 grid search with local refinement — robust,
//! derivative-free, and fast enough to run after every epoch.
//!
//! [`LossCurveFitter::fit`] runs the pruned sweep
//! ([`LossCurveFitter::fit_pruned`]), which returns the exhaustive
//! sweep's exact bits at a fraction of its cost. For a fixed rate the
//! SSE is a quadratic in the floor, whose coefficients come from a few
//! running sums of the history. On the grid, that closed form, less a
//! proven rounding margin, is a lower bound on the SSE the exact sum
//! would give, so it filters out nearly every candidate in O(1); a
//! warm-start bound from the previous fit
//! ([`LossCurveFitter::fit_hinted`]) tightens the filter from the first
//! cell. In the refinement, a *certificate* bounds each probe's SSE
//! difference to the incumbent in O(1), from one vectorized pass of
//! sums at the incumbent's rate: a probe whose bounds, widened by a
//! proven margin, settle the strict-`<` comparison is lost or won
//! without a sum, and only the rest are summed. Every shortcut makes
//! the decision the term-by-term sum in [`FittedCurve::sse`]'s order
//! would make. The exhaustive sweep ([`LossCurveFitter::fit_exhaustive`])
//! is kept only as the oracle of the differential tests.

use std::sync::OnceLock;

/// A fitted convergence curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FittedCurve {
    /// Loss before training (supplied, not fitted).
    pub initial: f64,
    /// Fitted asymptotic loss.
    pub floor: f64,
    /// Fitted convergence rate.
    pub rate: f64,
}

impl FittedCurve {
    /// Predicted loss after `e` epochs.
    pub fn loss_at(&self, e: f64) -> f64 {
        self.floor + (self.initial - self.floor) / (1.0 + self.rate * e)
    }

    /// Predicted total epochs to reach `target`, or `None` if the target
    /// is at or below the fitted floor.
    pub fn epochs_to(&self, target: f64) -> Option<f64> {
        if target <= self.floor {
            return None;
        }
        if target >= self.initial {
            return Some(0.0);
        }
        let ratio = (self.initial - self.floor) / (target - self.floor);
        Some((ratio - 1.0) / self.rate)
    }

    /// Sum of squared residuals against a history (epoch `i+1` ↦
    /// `history[i]`).
    pub fn sse(&self, history: &[f64]) -> f64 {
        self.sse_within(history, f64::INFINITY)
    }

    /// [`Self::sse`] with branch-and-bound pruning: the partial sum is a
    /// monotone nondecreasing sequence of nonnegative terms, so once it
    /// exceeds `bound` (an incumbent best) this candidate can never win
    /// a strict `<` comparison and the accumulation stops early. Terms
    /// are added in [`Self::sse`]'s order, so any return value that is
    /// `<= bound` is the full sum, bit-identical to [`Self::sse`].
    pub fn sse_within(&self, history: &[f64], bound: f64) -> f64 {
        let mut total = 0.0;
        for (i, &l) in history.iter().enumerate() {
            total += (self.loss_at((i + 1) as f64) - l).powi(2);
            if total > bound {
                return total;
            }
        }
        total
    }

    /// Whether two curves are the same candidate, bit for bit.
    fn same_bits(&self, other: &FittedCurve) -> bool {
        self.floor.to_bits() == other.floor.to_bits() && self.rate.to_bits() == other.rate.to_bits()
    }
}

/// Rates in the fitter's grid.
const RATES: usize = 49;

/// The fixed log-spaced rate grid (1e-3 to 1e3) swept by
/// [`LossCurveFitter::fit`], built once per process: the `powf` calls
/// would otherwise dominate the sweep's setup for every refit.
fn rate_grid() -> &'static [f64; RATES] {
    static GRID: OnceLock<[f64; RATES]> = OnceLock::new();
    GRID.get_or_init(|| {
        let mut rates = [0.0; RATES];
        for (ri, rate) in rates.iter_mut().enumerate() {
            *rate = 10f64.powf(-3.0 + 6.0 * ri as f64 / 48.0);
        }
        rates
    })
}

/// The top of the floor range: the smallest loss of the history, or 0
/// when a loss is negative (the floor is never negative).
fn floor_cap(history: &[f64]) -> f64 {
    let min_loss = history.iter().cloned().fold(f64::INFINITY, f64::min);
    if min_loss < 0.0 {
        0.0
    } else {
        min_loss
    }
}

/// Running sums of a loss history from which, for each grid rate, the
/// SSE of every floor is a quadratic. With `g = 1/(1 + rate·e)` the
/// curve is `floor·(1 − g) + initial·g`, so `SSE(floor)` needs only
/// `n`, `Σl` and `Σl²`, and per rate `Σg`, `Σg²` and `Σg·l`.
/// [`crate::OnlinePredictor`] grows them by one term per rate and epoch;
/// a bare [`LossCurveFitter::fit`] builds them in one pass. They only
/// feed the filter's lower bounds and the refinement's certificate,
/// never an accepted SSE.
#[derive(Debug, Clone)]
pub(crate) struct GridSums {
    n: usize,
    l: f64,
    l2: f64,
    /// A loss below zero was observed: the bounds assume `|l| = l`, so
    /// the filter is off.
    signed: bool,
    /// A loss is not [`tame`] (NaN and ±∞ included): the certificate is
    /// off.
    wild: bool,
    g: [f64; RATES],
    g2: [f64; RATES],
    gl: [f64; RATES],
}

impl GridSums {
    /// The sums of an empty history.
    pub(crate) fn new() -> Self {
        GridSums {
            n: 0,
            l: 0.0,
            l2: 0.0,
            signed: false,
            wild: false,
            g: [0.0; RATES],
            g2: [0.0; RATES],
            gl: [0.0; RATES],
        }
    }

    /// The sums of `history`, built in one pass.
    pub(crate) fn of(history: &[f64]) -> Self {
        let mut sums = GridSums::new();
        for &loss in history {
            sums.push(loss);
        }
        sums
    }

    /// Adds the next epoch's loss: one division per grid rate.
    pub(crate) fn push(&mut self, loss: f64) {
        self.n += 1;
        let e = self.n as f64;
        self.l += loss;
        self.l2 += loss * loss;
        self.signed |= loss < 0.0;
        self.wild |= !tame(loss);
        for (ri, &rate) in rate_grid().iter().enumerate() {
            let g = 1.0 / (1.0 + rate * e);
            self.g[ri] += g;
            self.g2[ri] += g * g;
            self.gl[ri] += g * loss;
        }
    }

    /// The lower-bound quadratic of each grid rate for curves anchored
    /// at `initial`.
    fn bounds(&self, initial: f64) -> [LowerBound; RATES] {
        if self.signed {
            return [LowerBound::NONE; RATES];
        }
        std::array::from_fn(|ri| {
            LowerBound::new(
                initial,
                self.n as f64,
                [self.l, self.l2],
                [self.g[ri], self.g2[ri], self.gl[ri]],
            )
        })
    }
}

/// The rounding margin's factor `k` in `k·(n + c₀)·ε·M(f)`: twice the
/// constant the proof in DESIGN.md ("Pruned sweep") needs.
const MARGIN_K: f64 = 4.0;
/// The margin's additive epoch count `c₀`.
const MARGIN_C0: f64 = 16.0;

/// A lower bound on the SSE [`FittedCurve::sse_within`] sums for every
/// floor `f ≥ 0` at one rate: `(a·f + b2)·f + c`, the closed-form SSE
/// less the rounding margin, both quadratics in `f`. A `NaN` bound
/// filters nothing, since it is never `>` a cut.
#[derive(Debug, Clone, Copy)]
struct LowerBound {
    a: f64,
    b2: f64,
    c: f64,
}

impl LowerBound {
    /// The bound that filters nothing.
    const NONE: LowerBound = LowerBound {
        a: 0.0,
        b2: 0.0,
        c: f64::NEG_INFINITY,
    };

    /// Builds the bound from `n` non-negative losses' sums `[Σl, Σl²]`
    /// and one rate's `[Σg, Σg², Σg·l]`. The SSE is
    /// `a·f² + 2b·f + c`; the margin scales with `M(f) = α·f² + 2β·f +
    /// κ`, the same quadratic with every sum and factor made
    /// non-negative (it bounds the magnitude of every rounded term).
    fn new(initial: f64, n: f64, [l, l2]: [f64; 2], [g, g2, gl]: [f64; 3]) -> LowerBound {
        let i = initial;
        let ia = initial.abs();
        let a = n - 2.0 * g + g2;
        let b = i * g - l - i * g2 + gl;
        let c = i * i * g2 - 2.0 * i * gl + l2;
        let alpha = n + 2.0 * g + g2;
        let beta = ia * g + l + ia * g2 + gl;
        let kappa = i * i * g2 + 2.0 * ia * gl + l2;
        let k = MARGIN_K * (n + MARGIN_C0) * f64::EPSILON;
        LowerBound {
            a: a - k * alpha,
            b2: 2.0 * (b - k * beta),
            // `MIN_POSITIVE` covers the absolute error of underflow.
            c: c - k * (kappa + f64::MIN_POSITIVE),
        }
    }

    /// The bound at floor `f ≥ 0`.
    fn at(&self, f: f64) -> f64 {
        (self.a * f + self.b2) * f + self.c
    }

    /// A lower bound on [`Self::at`] over every floor in `[0, cap]`, or
    /// `-∞` when a coefficient or `cap` is not finite. The minimum of the
    /// quadratic is taken at 0, at `cap`, or at the vertex; a vertex not
    /// clearly past `cap` counts as inside, which only lowers the bound.
    /// The slack covers this evaluation's rounding.
    fn min_over(&self, cap: f64) -> f64 {
        let Self { a, b2, c } = *self;
        if !(a.is_finite() && b2.is_finite() && c.is_finite() && cap.is_finite()) {
            return f64::NEG_INFINITY;
        }
        let low = if a > 0.0 && b2 < 0.0 {
            if -b2 > 2.0 * a * cap * (1.0 + 4.0 * f64::EPSILON) {
                self.at(cap)
            } else {
                c - b2 * b2 / (4.0 * a)
            }
        } else if a > 0.0 {
            c
        } else {
            c.min(self.at(cap))
        };
        let slack = 8.0 * f64::EPSILON * (a.abs() * cap * cap + 1.5 * b2.abs() * cap + c.abs());
        low - slack
    }
}

/// The smallest and largest magnitude of a loss, the initial loss or a
/// floor the certificate accepts besides 0: 2⁻⁴⁰⁰ and 2³⁰⁰. In that
/// range no sum the certificate or [`FittedCurve::sse_within`] forms
/// overflows, and no column term or divisor underflows.
const TAME_MIN: f64 = f64::from_bits((1023 - 400) << 52);
const TAME_MAX: f64 = f64::from_bits((1023 + 300) << 52);
/// The smallest rate a refinement probe takes.
const RATE_FLOOR: f64 = 1e-6;
/// The rates (the refinement's floor to 2⁴⁰) and the history lengths (to
/// 2²⁰) the certificate accepts: with them every `q = 1 − g` is at least
/// 2⁻²¹ and every `g = 1/(1 + rate·e)` at least 2⁻⁶¹.
const CERT_RATES: std::ops::RangeInclusive<f64> = RATE_FLOOR..=f64::from_bits((1023 + 40) << 52);
const CERT_MAX_LEN: usize = 1 << 20;

/// Whether `x` is 0 or within the certificate's magnitudes.
fn tame(x: f64) -> bool {
    x == 0.0 || (TAME_MIN..=TAME_MAX).contains(&x.abs())
}

/// Sums over a history at one rate `r`, with `g = 1/(1 + r·e)`, `q = 1 −
/// g` (formed as `r·e·g`, without cancellation) and `h = q·g`. On a
/// non-negative history every term is non-negative, so each sum is
/// within `γ_{n+30}` of its exact value in any order of summation, and
/// the pass runs two epochs per SSE2 instruction.
#[derive(Debug, Clone, Copy)]
struct Column {
    rate: f64,
    /// `Σq`, `Σq²` and `Σq·l`: floor moves.
    q: f64,
    q2: f64,
    ql: f64,
    /// Rate moves: `Σh`, `Σh²`, `Σh·g`, `Σh·l`, `Σh²·q`, and with
    /// `hq = h·q`, `Σhq`, `Σ(hq)²`, `Σhq·g`, `Σhq·l`.
    h: f64,
    h2: f64,
    hg: f64,
    hl: f64,
    hq: f64,
    h2q: f64,
    h2q2: f64,
    hqg: f64,
    hql: f64,
    /// `√Σ(h·q)²`.
    root_h2q2: f64,
    /// `1/rate`.
    inv_rate: f64,
}

impl Column {
    /// The column of `history` at `rate`, in one pass.
    fn of(rate: f64, history: &[f64]) -> Column {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86-64 baseline, so every x86-64
        // target has the feature `column_sums` enables.
        let [q, q2, ql, h, h2, hg, hl, hq, h2q, h2q2, hqg, hql] =
            unsafe { column_sums(rate, history) };
        #[cfg(not(target_arch = "x86_64"))]
        let [q, q2, ql, h, h2, hg, hl, hq, h2q, h2q2, hqg, hql] = column_sums(rate, history);
        Column {
            rate,
            q,
            q2,
            ql,
            h,
            h2,
            hg,
            hl,
            hq,
            h2q,
            h2q2,
            hqg,
            hql,
            root_h2q2: h2q2.sqrt(),
            inv_rate: 1.0 / rate,
        }
    }
}

/// The number of column sums.
const SUMS: usize = 12;

/// One epoch's column terms `[q, q², q·l, h, h², h·g, h·l, hq, h²·q,
/// (hq)², hq·g, hq·l]`, with `hq = h·q`.
fn column_terms(rate: f64, e: f64, l: f64) -> [f64; SUMS] {
    let t = rate * e;
    let g = 1.0 / (1.0 + t);
    let q = t * g;
    let h = q * g;
    let (h2, hq) = (h * h, h * q);
    [
        q,
        q * q,
        q * l,
        h,
        h2,
        h * g,
        h * l,
        hq,
        h2 * q,
        hq * hq,
        hq * g,
        hq * l,
    ]
}

/// The column's sums, two epochs at a time in the two lanes of SSE2,
/// with the same operations as [`column_terms`]. LLVM keeps the division
/// scalar when it vectorizes the portable form on baseline x86-64, and
/// that pass costs twice as much per epoch. Calling it is sound on any
/// CPU with SSE2, which every x86-64 CPU has.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
fn column_sums(rate: f64, history: &[f64]) -> [f64; SUMS] {
    use std::arch::x86_64::*;
    let (r, one, two) = (_mm_set1_pd(rate), _mm_set1_pd(1.0), _mm_set1_pd(2.0));
    let mut e = _mm_set_pd(2.0, 1.0);
    let mut acc = [_mm_setzero_pd(); SUMS];
    let mut pairs = history.chunks_exact(2);
    for pair in &mut pairs {
        let l = _mm_set_pd(pair[1], pair[0]);
        let t = _mm_mul_pd(r, e);
        let g = _mm_div_pd(one, _mm_add_pd(one, t));
        let q = _mm_mul_pd(t, g);
        let h = _mm_mul_pd(q, g);
        let (h2, hq) = (_mm_mul_pd(h, h), _mm_mul_pd(h, q));
        let terms = [
            q,
            _mm_mul_pd(q, q),
            _mm_mul_pd(q, l),
            h,
            h2,
            _mm_mul_pd(h, g),
            _mm_mul_pd(h, l),
            hq,
            _mm_mul_pd(h2, q),
            _mm_mul_pd(hq, hq),
            _mm_mul_pd(hq, g),
            _mm_mul_pd(hq, l),
        ];
        for (sum, term) in acc.iter_mut().zip(terms) {
            *sum = _mm_add_pd(*sum, term);
        }
        e = _mm_add_pd(e, two);
    }
    let mut sums = acc.map(|v| _mm_cvtsd_f64(_mm_add_pd(v, _mm_unpackhi_pd(v, v))));
    if let [l] = pairs.remainder() {
        let last = column_terms(rate, history.len() as f64, *l);
        for (sum, term) in sums.iter_mut().zip(last) {
            *sum += term;
        }
    }
    sums
}

/// The column's sums, one epoch at a time.
#[cfg(not(target_arch = "x86_64"))]
fn column_sums(rate: f64, history: &[f64]) -> [f64; SUMS] {
    let mut sums = [0.0; SUMS];
    for (i, &l) in history.iter().enumerate() {
        for (sum, term) in sums.iter_mut().zip(column_terms(rate, (i + 1) as f64, l)) {
            *sum += term;
        }
    }
    sums
}

/// The refinement's incumbent, and what the certificate knows of it.
#[derive(Debug, Clone, Copy)]
struct Incumbent {
    curve: FittedCurve,
    /// Its SSE as [`FittedCurve::sse`] sums it, or `None` while it has
    /// won by bound only. The grid's unsummed placeholder holds `∞`.
    sse: Option<f64>,
    /// An upper bound on `S*`, its SSE in exact arithmetic; `∞` for the
    /// placeholder.
    s_hi: f64,
    /// `J = I − f`, rounded as [`FittedCurve::loss_at`] rounds it.
    j: f64,
    /// The margin for a probe whose `S*` is at most `s_hi`.
    m0: f64,
    /// The certificate may bound its probes: the history and the initial
    /// loss meet its preconditions, and so do this floor, rate and a
    /// finite `s_hi`.
    tame: bool,
}

/// What the bounds read of the incumbent and its column, built once per
/// incumbent.
#[derive(Debug, Clone, Copy)]
struct Frame {
    /// The incumbent's floor and rate bits.
    key: (u64, u64),
    /// Floor moves: `Σq²`, and `B = Σq·res` with its magnitude.
    q2: f64,
    b: f64,
    b_abs: f64,
    /// Rate moves: `1/rate`; `Σw²`, `Σw²·q` and `Σw²·q²`; `Σw·res`
    /// and `Σw·res·q` with their magnitudes; and the Cauchy–Schwarz
    /// factor, at least `2·√Σw²q²·√s_hi`.
    inv_rate: f64,
    w2: f64,
    w2q: f64,
    w2q2: f64,
    wr: f64,
    wr_abs: f64,
    wrq: f64,
    wrq_abs: f64,
    cs: f64,
}

impl Frame {
    /// A frame no incumbent matches: NaN bits are never a tame key.
    const NONE: Frame = Frame {
        key: (u64::MAX, u64::MAX),
        q2: 0.0,
        b: 0.0,
        b_abs: 0.0,
        inv_rate: 0.0,
        w2: 0.0,
        w2q: 0.0,
        w2q2: 0.0,
        wr: 0.0,
        wr_abs: 0.0,
        wrq: 0.0,
        wrq_abs: 0.0,
        cs: 0.0,
    };
}

/// How the refinement's probes were decided, counted per thread for the
/// tests only.
#[derive(Debug, Default, Clone, Copy)]
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) struct Decisions {
    /// Refits that reached the refinement.
    pub(crate) refits: u64,
    /// Probes summed by [`FittedCurve::sse_within`].
    pub(crate) summed: u64,
}

#[cfg(test)]
thread_local! {
    static DECISIONS: std::cell::Cell<Decisions> = std::cell::Cell::new(Decisions::default());
}

/// This thread's decision counts so far.
#[cfg(test)]
pub(crate) fn decisions() -> Decisions {
    DECISIONS.with(std::cell::Cell::get)
}

#[cfg(test)]
fn tally(count: impl FnOnce(&mut Decisions)) {
    DECISIONS.with(|cell| {
        let mut d = cell.get();
        count(&mut d);
        cell.set(d);
    });
}

#[cfg(not(test))]
#[inline(always)]
fn tally(_: impl FnOnce(&mut Decisions)) {}

/// The certificate of one fit: bounds on `S(c) − S(b)`, the difference
/// of two SSEs as [`FittedCurve::sse`] sums them, between a refinement
/// probe `c` and the incumbent `b`, in O(1) from `b`'s column. DESIGN.md
/// ("Pruned sweep") derives the bounds and proves their margin.
struct Certificate<'a> {
    initial: f64,
    history: &'a [f64],
    /// The top of the floor range, `m`.
    cap: f64,
    /// `Q = Σ(a + l)²` with `a = max(|I|, m + |I − m|)`: for every floor
    /// `f` in `[0, m]`, `f + |I − f| ≤ a`, so `Q` bounds the squared
    /// magnitudes `Σ(f + |J|·g + l)²` of any probe's residual terms.
    q: f64,
    /// The preconditions on the history and the initial loss hold.
    on: bool,
    /// `(n + 64)·ε`, the closed forms' rounding factor.
    k: f64,
    /// `(n + 64)·MIN_POSITIVE`, which covers every underflow.
    tiny: f64,
    /// `√S₀` and `1/√S₀`, with `S₀` the grid winner's `s_hi`: every
    /// `√s ≤ (s/√S₀ + √S₀)/2`, tight at `s = S₀`.
    root0: f64,
    inv_root0: f64,
    /// `|S − S*| ≤ α·S* + β` for every probe (see [`Self::new`]).
    alpha: f64,
    beta: f64,
    /// The incumbent's column and frame, built when a probe first needs
    /// them.
    column: Option<Column>,
    frame: Frame,
}

impl<'a> Certificate<'a> {
    /// The certificate of a fit of `history`, whose grid sums are `sums`,
    /// whose floors lie in `[0, min_loss]`, and whose grid winner summed
    /// to `grid_sse`.
    fn new(
        initial: f64,
        min_loss: f64,
        history: &'a [f64],
        sums: &GridSums,
        grid_sse: f64,
    ) -> Self {
        const E: f64 = f64::EPSILON;
        let n = history.len() as f64;
        let a = initial.abs().max(min_loss + (initial - min_loss).abs());
        let q = (n * a + 2.0 * sums.l) * a + sums.l2;
        let mut cert = Certificate {
            initial,
            history,
            cap: min_loss,
            q,
            on: !sums.signed && !sums.wild && tame(initial) && history.len() <= CERT_MAX_LEN,
            k: (n + 64.0) * E,
            tiny: (n + 64.0) * f64::MIN_POSITIVE,
            root0: 0.0,
            inv_root0: 0.0,
            alpha: 0.0,
            beta: 0.0,
            column: None,
            frame: Frame::NONE,
        };
        // |S − S*| ≤ n·ε·S* + 7ε·√(Q·S*) + 10ε²·Q, and 2√(Q·S*) ≤
        // √Q·(S*/√S₀ + √S₀): so α = n·ε + 3.5ε·√Q/√S₀ and
        // β = 3.5ε·√Q·√S₀ + 10ε²·Q.
        let root_q = q.sqrt();
        cert.root0 = cert.real_hi(grid_sse).sqrt();
        cert.inv_root0 = 1.0 / cert.root0;
        cert.alpha = n * E + 3.5 * E * root_q * cert.inv_root0;
        cert.beta = 3.5 * E * root_q * cert.root0 + 10.0 * E * E * q;
        cert
    }

    /// An incumbent whose `S*` is at most `s_hi`.
    fn incumbent(&self, curve: FittedCurve, sse: Option<f64>, s_hi: f64) -> Incumbent {
        Incumbent {
            curve,
            sse,
            s_hi,
            j: self.initial - curve.floor,
            m0: 2.0 * (self.alpha * s_hi + self.beta) + self.tiny,
            tame: self.on
                && s_hi.is_finite()
                && self.admits_floor(curve.floor)
                && CERT_RATES.contains(&curve.rate),
        }
    }

    /// Whether `floor` is tame and in `[0, m]`.
    fn admits_floor(&self, floor: f64) -> bool {
        tame(floor) && (0.0..=self.cap).contains(&floor)
    }

    /// An incumbent whose SSE `sse` was summed; `∞` is the placeholder.
    fn summed(&self, curve: FittedCurve, sse: f64) -> Incumbent {
        self.incumbent(curve, Some(sse), self.real_hi(sse))
    }

    /// An upper bound on `S*` from the summed `sse`:
    /// `1.02·(sse + 700ε²·Q) + (n + 64)·MIN_POSITIVE`.
    fn real_hi(&self, sse: f64) -> f64 {
        const E: f64 = f64::EPSILON;
        if !sse.is_finite() {
            return f64::INFINITY;
        }
        1.02 * (sse + 700.0 * E * E * self.q) + self.tiny
    }

    /// The incumbent's SSE, summed now if it won by bound.
    fn sum(&self, inc: &mut Incumbent) -> f64 {
        if let Some(sse) = inc.sse {
            return sse;
        }
        let sse = inc.curve.sse(self.history);
        *inc = self.incumbent(inc.curve, Some(sse), inc.s_hi.min(self.real_hi(sse)));
        sse
    }

    /// The incumbent's frame.
    #[inline]
    fn frame(&mut self, inc: &Incumbent) -> &Frame {
        let key = (inc.curve.floor.to_bits(), inc.curve.rate.to_bits());
        if self.frame.key != key {
            self.build_frame(inc, key);
        }
        &self.frame
    }

    /// Builds the incumbent's frame, and its column if missing.
    fn build_frame(&mut self, inc: &Incumbent, key: (u64, u64)) {
        let b = inc.curve;
        let c = match self.column {
            Some(c) if c.rate.to_bits() == key.1 => c,
            _ => *self.column.insert(Column::of(b.rate, self.history)),
        };
        let (f, j, ja) = (b.floor, inc.j, inc.j.abs());
        let jj = j * j;
        let root = 0.5 * (inc.s_hi * self.inv_root0 + self.root0);
        self.frame = Frame {
            key,
            q2: c.q2,
            b: f * c.q + j * c.h - c.ql,
            b_abs: f * c.q + ja * c.h + c.ql,
            inv_rate: c.inv_rate,
            w2: jj * c.h2,
            w2q: jj * c.h2q,
            w2q2: jj * c.h2q2,
            wr: j * (f * c.h + j * c.hg - c.hl),
            wr_abs: ja * (f * c.h + ja * c.hg + c.hl),
            wrq: j * (f * c.hq + j * c.hqg - c.hql),
            wrq_abs: ja * (f * c.hq + ja * c.hqg + c.hql),
            cs: 2.0 * (ja * c.root_h2q2) * root,
        };
    }

    /// Bounds `(lo, hi)` on `S(cand) − S(inc)`, or `None` when the
    /// preconditions fail or `cand` is not a floor move or a rate move
    /// by a factor in `[1/2, 3/2]` of the incumbent.
    fn bounds(&mut self, inc: &Incumbent, cand: &FittedCurve) -> Option<(f64, f64)> {
        if !inc.tame {
            return None;
        }
        let (b, k) = (inc.curve, self.k);
        // Bounds on ΔS* = S*(c) − S*(b), each widened by its rounding.
        let (lo, hi) = if cand.rate.to_bits() == b.rate.to_bits() {
            // A floor move by δ: ΔS* = δ²·Σq² + 2δ·B.
            if !self.admits_floor(cand.floor) {
                return None;
            }
            let fr = self.frame(inc);
            let d = cand.floor - b.floor;
            let quad = d * d * fr.q2;
            let mid = quad + 2.0 * d * fr.b;
            let e = k * (quad + 2.0 * d.abs() * fr.b_abs);
            (mid - e, mid + e)
        } else if cand.floor == b.floor {
            // A rate move by 1 + s: ΔS* = Σw²φ² − 2Σw·res·φ with
            // φ = s/(1 + s·q), where φ² − s² + 2s³q lies in [0, c·s⁴q²]
            // and φ − s + s²q in [−|s|³q²·t, |s|³q²·t].
            if !CERT_RATES.contains(&cand.rate) {
                return None;
            }
            let fr = self.frame(inc);
            let s = (cand.rate - b.rate) * fr.inv_rate;
            if !(-0.5..=0.5).contains(&s) {
                return None;
            }
            let (s2, sa) = (s * s, s.abs());
            let s3 = s2 * s;
            // `t ≥ 1/min(1, 1 + s)` and `c ≥ (3 + 2x)/(1 + x)²` for x
            // between 0 and s.
            let (t, c) = if s > 0.0 {
                (1.0, 3.0)
            } else {
                (1.0 - s + 2.0 * s2, 8.0)
            };
            let square = s2 * fr.w2;
            let cube = 2.0 * s3 * fr.w2q;
            let spread = c * (s2 * s2) * fr.w2q2;
            let lin = 2.0 * s * fr.wr;
            let quad = 2.0 * s2 * fr.wrq;
            let cs = s3.abs() * t * fr.cs;
            let mid = square - cube - lin + quad;
            let e = k
                * (square
                    + cube.abs()
                    + spread
                    + 2.0 * sa * fr.wr_abs
                    + 2.0 * s2 * fr.wrq_abs
                    + cs);
            (mid - cs - e, mid + spread + cs + e)
        } else {
            return None;
        };
        // The two sums' own rounding: S*(c) ≤ s_hi + max(hi, 0).
        let m = inc.m0 + self.alpha * hi.max(0.0);
        Some((lo - m, hi + m))
    }
}

/// The online fitter.
#[derive(Debug, Clone)]
pub struct LossCurveFitter {
    initial: f64,
}

impl LossCurveFitter {
    /// Minimum history length before a fit is attempted.
    pub const MIN_POINTS: usize = 3;

    /// Creates a fitter anchored at the (observed) initial loss.
    pub fn new(initial_loss: f64) -> Self {
        assert!(initial_loss.is_finite());
        LossCurveFitter {
            initial: initial_loss,
        }
    }

    /// Fits `(floor, rate)` to the observed history, or `None` with fewer
    /// than [`Self::MIN_POINTS`] observations. Runs the pruned sweep,
    /// which is bit-identical to [`Self::fit_exhaustive`].
    pub fn fit(&self, history: &[f64]) -> Option<FittedCurve> {
        self.fit_hinted(history, None)
    }

    /// [`Self::fit`] warm-started from `hint`, typically the previous fit
    /// of a history this one extends. The hint only bounds the pruned
    /// sweep's work; the fit is the same bits for every hint, including
    /// `None` and nonsense values.
    pub fn fit_hinted(&self, history: &[f64], hint: Option<FittedCurve>) -> Option<FittedCurve> {
        self.fit_pruned(history, hint)
    }

    /// The pruned sweep: same candidates, same order and same strict-`<`
    /// first-argmin as [`Self::fit_exhaustive`], with the grid sums built
    /// from `history` in one pass. [`crate::OnlinePredictor`] keeps its
    /// sums as it observes instead.
    pub fn fit_pruned(&self, history: &[f64], hint: Option<FittedCurve>) -> Option<FittedCurve> {
        self.fit_summed(history, hint, &GridSums::of(history))
    }

    /// The branch-and-bound sweep over `history`, whose grid sums are
    /// `sums`, with these exact shortcuts.
    ///
    /// * *Warm-start bound.* Before the grid, the exact SSE of the grid
    ///   cell nearest `hint` becomes an upper bound on the grid minimum;
    ///   a candidate is accepted only if `sse < best_sse && sse <= bound`.
    /// * *Closed-form filter.* A grid cell is skipped when its rate's
    ///   [`LowerBound`] at its floor is above `min(best_sse, bound)`,
    ///   and a whole rate column when the bound's minimum over the floor
    ///   range is above `bound`. Survivors are summed by
    ///   [`FittedCurve::sse_within`].
    /// * *Refinement.* Each probe is decided by its [`Certificate`]: it
    ///   loses when its bounds are above zero and wins when they are
    ///   below, with no sum. Otherwise the incumbent is summed (once, if
    ///   it won by bound) and the probe by [`FittedCurve::sse_within`].
    ///   A probe bit-equal to the incumbent, to the last displaced
    ///   incumbent or to one of the last two rate probes is skipped: its
    ///   SSE already lost to, or ties, an incumbent no better than
    ///   today's.
    pub(crate) fn fit_summed(
        &self,
        history: &[f64],
        hint: Option<FittedCurve>,
        sums: &GridSums,
    ) -> Option<FittedCurve> {
        debug_assert_eq!(sums.n, history.len(), "grid sums of another history");
        if history.len() < Self::MIN_POINTS {
            return None;
        }
        let min_loss = floor_cap(history);
        let bound = self.hint_bound(history, min_loss, hint);
        let rates = rate_grid();
        let lower = sums.bounds(self.initial);
        // Rate columns some floor of which may still be accepted.
        let mut live = [0; RATES];
        let mut n_live = 0;
        for (ri, lb) in lower.iter().enumerate() {
            if lb.min_over(min_loss) > bound {
                continue;
            }
            live[n_live] = ri;
            n_live += 1;
        }
        // Coarse grid over floor ∈ [0, min_loss], rate log-spaced.
        let mut best = FittedCurve {
            initial: self.initial,
            floor: 0.0,
            rate: 1.0,
        };
        let mut best_sse = f64::INFINITY;
        for fi in 0..=32 {
            let floor = min_loss * f64::from(fi) / 32.0;
            for &ri in &live[..n_live] {
                let cut = best_sse.min(bound);
                if lower[ri].at(floor) > cut {
                    continue;
                }
                let cand = FittedCurve {
                    initial: self.initial,
                    floor,
                    rate: rates[ri],
                };
                let sse = cand.sse_within(history, cut);
                if sse < best_sse && sse <= bound {
                    (best, best_sse) = (cand, sse);
                }
            }
        }
        // Local refinement: shrinking coordinate search around the best
        // grid cell.
        tally(|d| d.refits += 1);
        let mut cert = Certificate::new(self.initial, min_loss, history, sums, best_sse);
        let mut inc = cert.summed(best, best_sse);
        let mut floor_step = min_loss / 32.0;
        let mut rate_factor = 10f64.powf(6.0 / 48.0);
        // Probes whose SSE already lost to an incumbent no better than
        // today's: the last displaced incumbent and the last two rate
        // probes (a floor move repeats the rate probes of the round
        // before, and a move back lands on the displaced incumbent).
        let mut losers: [Option<FittedCurve>; 3] = [None; 3];
        for _ in 0..24 {
            let mut improved = false;
            for (df, rf) in [
                (floor_step, 1.0),
                (-floor_step, 1.0),
                (0.0, rate_factor),
                (0.0, 1.0 / rate_factor),
            ] {
                let cand = FittedCurve {
                    initial: self.initial,
                    floor: (inc.curve.floor + df).clamp(0.0, min_loss),
                    rate: (inc.curve.rate * rf).max(RATE_FLOOR),
                };
                // A clamped probe may be the incumbent itself: a tie.
                if cand.same_bits(&inc.curve) || losers.iter().flatten().any(|p| p.same_bits(&cand))
                {
                    continue;
                }
                if rf != 1.0 {
                    losers[2] = losers[1];
                    losers[1] = Some(cand);
                }
                let next = match cert.bounds(&inc, &cand) {
                    Some((lo, _)) if lo > 0.0 => None,
                    Some((_, hi)) if hi < 0.0 => {
                        // S*(c) ≤ S*(b) + hi, rounded up.
                        let s_hi = (inc.s_hi + hi) * (1.0 + 2.0 * f64::EPSILON);
                        Some(cert.incumbent(cand, None, s_hi))
                    }
                    _ => {
                        tally(|d| d.summed += 1);
                        let best_sse = cert.sum(&mut inc);
                        let sse = cand.sse_within(history, best_sse);
                        (sse < best_sse).then(|| cert.summed(cand, sse))
                    }
                };
                if let Some(next) = next {
                    // The grid's placeholder was never summed.
                    if inc.sse != Some(f64::INFINITY) {
                        losers[0] = Some(inc.curve);
                    }
                    inc = next;
                    improved = true;
                }
            }
            if !improved {
                floor_step *= 0.5;
                rate_factor = rate_factor.sqrt();
            }
        }
        Some(inc.curve)
    }

    /// The exact SSE of the grid cell nearest `hint`, or infinity (no
    /// bound) for a missing or non-finite hint or a NaN SSE. The cell is
    /// built with the grid's own floor and rate expressions, so its SSE
    /// is one the grid sweep also computes: never below the grid minimum.
    fn hint_bound(&self, history: &[f64], min_loss: f64, hint: Option<FittedCurve>) -> f64 {
        let Some(hint) = hint else {
            return f64::INFINITY;
        };
        if !(hint.floor.is_finite() && hint.rate.is_finite() && hint.rate > 0.0) {
            return f64::INFINITY;
        }
        // Float-to-int casts saturate (NaN → 0), so any ratio lands on a
        // real cell.
        let fi = ((hint.floor / min_loss * 32.0).round() as i32).clamp(0, 32);
        let ri = (((hint.rate.log10() + 3.0) * 8.0).round() as usize).min(48);
        let cell = FittedCurve {
            initial: self.initial,
            floor: min_loss * f64::from(fi) / 32.0,
            rate: rate_grid()[ri],
        };
        let sse = cell.sse(history);
        if sse.is_nan() {
            f64::INFINITY
        } else {
            sse
        }
    }

    /// The original full sweep: every candidate's SSE evaluated over the
    /// whole history, `powf` per grid cell. Kept as the pruned sweep's
    /// oracle in the differential tests.
    pub fn fit_exhaustive(&self, history: &[f64]) -> Option<FittedCurve> {
        if history.len() < Self::MIN_POINTS {
            return None;
        }
        let min_loss = floor_cap(history);
        let mut best = FittedCurve {
            initial: self.initial,
            floor: 0.0,
            rate: 1.0,
        };
        let mut best_sse = f64::INFINITY;
        for fi in 0..=32 {
            let floor = min_loss * f64::from(fi) / 32.0;
            for ri in 0..=48 {
                let rate = 10f64.powf(-3.0 + 6.0 * f64::from(ri) / 48.0);
                let cand = FittedCurve {
                    initial: self.initial,
                    floor,
                    rate,
                };
                let sse = cand.sse(history);
                if sse < best_sse {
                    best_sse = sse;
                    best = cand;
                }
            }
        }
        let mut floor_step = min_loss / 32.0;
        let mut rate_factor = 10f64.powf(6.0 / 48.0);
        for _ in 0..24 {
            let mut improved = false;
            for (df, rf) in [
                (floor_step, 1.0),
                (-floor_step, 1.0),
                (0.0, rate_factor),
                (0.0, 1.0 / rate_factor),
            ] {
                let cand = FittedCurve {
                    initial: self.initial,
                    floor: (best.floor + df).clamp(0.0, min_loss),
                    rate: (best.rate * rf).max(RATE_FLOOR),
                };
                let sse = cand.sse(history);
                if sse < best_sse {
                    best_sse = sse;
                    best = cand;
                    improved = true;
                }
            }
            if !improved {
                floor_step *= 0.5;
                rate_factor = rate_factor.sqrt();
            }
        }
        Some(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OnlinePredictor;
    use ce_ml::curve::{CurveParams, LossCurve};
    use ce_ml::model::ModelFamily;
    use ce_sim_core::rng::SimRng;

    fn exact_history(initial: f64, floor: f64, rate: f64, n: usize) -> Vec<f64> {
        (1..=n)
            .map(|e| floor + (initial - floor) / (1.0 + rate * e as f64))
            .collect()
    }

    #[test]
    fn recovers_exact_curve() {
        let history = exact_history(2.3, 0.15, 0.8, 20);
        let fit = LossCurveFitter::new(2.3).fit(&history).unwrap();
        assert!((fit.floor - 0.15).abs() < 0.02, "floor {}", fit.floor);
        assert!((fit.rate - 0.8).abs() / 0.8 < 0.05, "rate {}", fit.rate);
    }

    #[test]
    fn epochs_to_inverts_loss_at() {
        let fit = FittedCurve {
            initial: 1.0,
            floor: 0.2,
            rate: 0.5,
        };
        for target in [0.9, 0.5, 0.3, 0.25] {
            let e = fit.epochs_to(target).unwrap();
            assert!((fit.loss_at(e) - target).abs() < 1e-9);
        }
        assert!(fit.epochs_to(0.2).is_none());
        assert_eq!(fit.epochs_to(1.5), Some(0.0));
    }

    #[test]
    fn too_few_points_yields_none() {
        let fitter = LossCurveFitter::new(1.0);
        assert!(fitter.fit(&[0.9]).is_none());
        assert!(fitter.fit(&[0.9, 0.8]).is_none());
        assert!(fitter.fit(&[0.9, 0.8, 0.7]).is_some());
    }

    #[test]
    fn fits_noisy_synthetic_run_accurately() {
        // Fit a realized stochastic run and compare the predicted epochs
        // to the run's ground truth.
        let params = CurveParams::for_workload(ModelFamily::MobileNet, "Cifar10");
        let mut run = LossCurve::sample_optimal(&params, SimRng::new(5));
        for _ in 0..25 {
            run.next_epoch();
        }
        let fit = LossCurveFitter::new(params.initial)
            .fit(run.history())
            .unwrap();
        let predicted = fit.epochs_to(0.2).expect("target reachable");
        let truth = f64::from(run.true_epochs_to(0.2).unwrap());
        let rel = (predicted - truth).abs() / truth;
        assert!(rel < 0.20, "relative error {rel:.3}");
    }

    #[test]
    fn online_error_shrinks_with_history() {
        // Fig. 4b's shape: average prediction error decreases as training
        // progresses.
        let params = CurveParams::for_workload(ModelFamily::LogisticRegression, "Higgs");
        let target = 0.66;
        let mut early_errs = Vec::new();
        let mut late_errs = Vec::new();
        for seed in 0..12 {
            let mut run = LossCurve::sample_optimal(&params, SimRng::new(seed));
            let truth = f64::from(run.true_epochs_to(target).unwrap());
            for _ in 0..40 {
                run.next_epoch();
            }
            let fitter = LossCurveFitter::new(params.initial);
            let early = fitter.fit(&run.history()[..5]).unwrap();
            let late = fitter.fit(&run.history()[..40]).unwrap();
            let err = |f: &FittedCurve| {
                f.epochs_to(target)
                    .map_or(1.0, |e| (e - truth).abs() / truth)
            };
            early_errs.push(err(&early));
            late_errs.push(err(&late));
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&late_errs) < mean(&early_errs),
            "late {:.3} !< early {:.3}",
            mean(&late_errs),
            mean(&early_errs)
        );
        assert!(
            mean(&late_errs) < 0.12,
            "late error {:.3}",
            mean(&late_errs)
        );
    }

    #[test]
    fn pruned_fit_is_bit_identical_to_exhaustive_sweep() {
        // Neither the warm-start bound nor the closed-form filter may
        // change which candidate wins: across noisy realizations,
        // history lengths and hints, the pruned fit and the exhaustive
        // oracle return the exact same bits.
        for seed in 0..6 {
            let params = CurveParams::for_workload(ModelFamily::MobileNet, "Cifar10");
            let mut run = LossCurve::sample_optimal(&params, SimRng::new(seed));
            for _ in 0..70 {
                run.next_epoch();
            }
            let fitter = LossCurveFitter::new(params.initial);
            for n in [3, 5, 12, 25, 40, 70] {
                let history = &run.history()[..n];
                let slow = fitter.fit_exhaustive(history).unwrap();
                let hints = [
                    None,
                    fitter.fit_exhaustive(&history[..n - 1]),
                    Some(slow),
                    Some(FittedCurve {
                        rate: f64::NAN,
                        ..slow
                    }),
                ];
                for hint in hints {
                    let fast = fitter.fit_pruned(history, hint).unwrap();
                    assert_eq!(
                        (fast.floor.to_bits(), fast.rate.to_bits()),
                        (slow.floor.to_bits(), slow.rate.to_bits()),
                        "seed {seed} n {n} hint {hint:?}"
                    );
                }
            }
        }
    }

    fn bits(fit: Option<FittedCurve>) -> Option<(u64, u64)> {
        fit.map(|c| (c.floor.to_bits(), c.rate.to_bits()))
    }

    /// Fits the prefix of `history` at each of `lengths` (ascending) three
    /// ways: a bare pruned fit, a pruned fit hinted with the previous
    /// length's fit, and an `OnlinePredictor` refit from its kept sums.
    /// Each must be the exhaustive oracle's exact bits.
    fn assert_prefixes_match_exhaustive(
        initial: f64,
        history: &[f64],
        lengths: impl IntoIterator<Item = usize>,
        what: &str,
    ) {
        let fitter = LossCurveFitter::new(initial);
        let mut online = OnlinePredictor::new(initial);
        let mut hint = None;
        for n in lengths {
            while (online.epochs_observed() as usize) < n {
                online.observe(history[online.epochs_observed() as usize]);
            }
            let prefix = &history[..n];
            let oracle = fitter.fit_exhaustive(prefix);
            let want = bits(oracle);
            assert_eq!(
                bits(fitter.fit_pruned(prefix, None)),
                want,
                "{what}: bare, {n} epochs"
            );
            assert_eq!(
                bits(fitter.fit_pruned(prefix, hint)),
                want,
                "{what}: hinted, {n} epochs"
            );
            assert_eq!(bits(online.fitted()), want, "{what}: online, {n} epochs");
            hint = oracle;
        }
    }

    /// A noisy run of `family` on `dataset` as long as a run can train
    /// (`max_epochs`, 600).
    fn noisy_run(family: ModelFamily, dataset: &str) -> (f64, Vec<f64>) {
        let params = CurveParams::for_workload(family, dataset);
        let mut run = LossCurve::sample_optimal(&params, SimRng::new(26));
        for _ in 0..600 {
            run.next_epoch();
        }
        (params.initial, run.history().to_vec())
    }

    fn long_noisy_run() -> (f64, Vec<f64>) {
        noisy_run(ModelFamily::MobileNet, "Cifar10")
    }

    /// `noisy`'s first 40 epochs, then flat at their lowest loss.
    fn plateau(noisy: &[f64]) -> Vec<f64> {
        let low = noisy[..40].iter().cloned().fold(f64::INFINITY, f64::min);
        (0..noisy.len())
            .map(|e| if e < 40 { noisy[e] } else { low })
            .collect()
    }

    /// The three model families whose curves differ most: a fast LR
    /// plateau, MobileNet's long decline, and BERT's few-epoch fine-tune.
    const FAMILIES: [(ModelFamily, &str); 3] = [
        (ModelFamily::LogisticRegression, "Higgs"),
        (ModelFamily::MobileNet, "Cifar10"),
        (ModelFamily::BertBase, "IMDb"),
    ];

    #[test]
    fn pruned_fit_matches_exhaustive_at_every_length_to_the_epoch_cap() {
        for (family, dataset) in FAMILIES {
            let (initial, history) = noisy_run(family, dataset);
            assert_prefixes_match_exhaustive(initial, &history, 3..=600, &format!("{family:?}"));
        }
    }

    #[test]
    fn pruned_fit_matches_exhaustive_on_exact_zero_and_hostile_histories() {
        let lengths = || (3..=24).chain([31, 47, 64, 96, 150, 233, 377, 600]);
        // Exact curves, where the best SSE is ~0 and the closed form
        // cancels hardest: on a grid cell (floor 0, a grid rate), off the
        // grid, and flat at the initial loss (every rate ties at the top
        // floor).
        let exact = [
            (2.3, exact_history(2.3, 0.0, rate_grid()[20], 600)),
            (2.3, exact_history(2.3, 0.15, 0.8, 600)),
            (1.7, exact_history(1.7, 0.9, 0.013, 600)),
            (0.8, vec![0.8; 600]),
        ];
        for (i, (initial, history)) in exact.iter().enumerate() {
            assert_prefixes_match_exhaustive(*initial, history, lengths(), &format!("exact {i}"));
        }
        // All-zero losses: the floor range is the single point 0.
        assert_prefixes_match_exhaustive(1.0, &[0.0; 600], lengths(), "zero");
        // A plateau: a noisy decline that goes flat at its lowest loss, so
        // floor probes clamp at `min_loss`. A near-linear decline, whose
        // fit walks below the grid's slowest rate. The noisy run scaled
        // by 1e-8 and by 1e6, initial loss included: the fit is
        // scale-free, its roundings are not.
        let (initial, noisy) = long_noisy_run();
        assert_prefixes_match_exhaustive(initial, &plateau(&noisy), lengths(), "plateau");
        let slow = exact_history(1.0, 0.0, 1e-4, 600);
        assert_prefixes_match_exhaustive(1.0, &slow, lengths(), "slow");
        for k in [1e-8, 1e6] {
            let scaled: Vec<f64> = noisy.iter().map(|l| l * k).collect();
            assert_prefixes_match_exhaustive(initial * k, &scaled, lengths(), &format!("x{k:e}"));
        }
        // Hostile values in a noisy run: NaN, ±inf, negative and -0.0
        // losses, and magnitudes whose squares underflow or overflow.
        let (initial, history) = long_noisy_run();
        let base = &history[..40];
        let scaled = |k: f64| base.iter().map(|l| l * k).collect::<Vec<_>>();
        let mut hostile = vec![scaled(1e-300), scaled(1e200), vec![-0.0; 40]];
        for (value, at) in [
            (f64::NAN, 5),
            (f64::INFINITY, 7),
            (f64::NEG_INFINITY, 9),
            (-0.3, 4),
            (-1e-12, 20),
            (-0.0, 6),
        ] {
            let mut h = base.to_vec();
            h[at] = value;
            hostile.push(h);
        }
        for (i, history) in hostile.iter().enumerate() {
            assert_prefixes_match_exhaustive(initial, history, 3..=40, &format!("hostile {i}"));
        }
    }

    #[test]
    fn grown_sums_equal_a_one_pass_build() {
        let (_, history) = long_noisy_run();
        let mut grown = GridSums::of(&history[..96]);
        grown.push(history[96]);
        let fresh = GridSums::of(&history[..97]);
        assert_eq!(grown.n, fresh.n);
        assert_eq!(grown.l.to_bits(), fresh.l.to_bits());
        assert_eq!(grown.l2.to_bits(), fresh.l2.to_bits());
        for (a, b) in [
            (grown.g, fresh.g),
            (grown.g2, fresh.g2),
            (grown.gl, fresh.gl),
        ] {
            assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits));
        }
    }

    #[test]
    fn closed_form_less_margin_never_exceeds_the_exact_sse() {
        // The filter's soundness: at every grid cell and at random
        // floors of each grid rate, the lower bound is at most the SSE
        // `sse` sums, and so is its minimum over the floor range.
        let (initial, noisy) = long_noisy_run();
        let cases = [
            (initial, noisy.clone()),
            (initial, noisy.iter().map(|l| l * 1e-300).collect()),
            (initial, noisy.iter().map(|l| l * 1e100).collect()),
            (2.3, exact_history(2.3, 0.0, rate_grid()[20], 600)),
            (2.3, exact_history(2.3, 0.15, 0.8, 600)),
            (0.8, vec![0.8; 600]),
            (1.0, vec![0.0; 600]),
        ];
        let mut rng = SimRng::new(7);
        for (case, (initial, history)) in cases.iter().enumerate() {
            for n in [3, 4, 7, 20, 75, 600] {
                let h = &history[..n];
                let sums = GridSums::of(h);
                let cap = floor_cap(h);
                let grid = sums.bounds(*initial);
                let check = |floor: f64, rate: f64, lb: LowerBound| {
                    let sse = FittedCurve {
                        initial: *initial,
                        floor,
                        rate,
                    }
                    .sse(h);
                    let what = format!("case {case} n {n} floor {floor:e} rate {rate:e}");
                    assert!(lb.at(floor) <= sse, "{what}: {} > {sse}", lb.at(floor));
                    if floor <= cap {
                        assert!(
                            lb.min_over(cap) <= sse,
                            "{what}: column min {}",
                            lb.min_over(cap)
                        );
                    }
                };
                for (ri, &rate) in rate_grid().iter().enumerate() {
                    for fi in 0..=32 {
                        check(cap * f64::from(fi) / 32.0, rate, grid[ri]);
                    }
                }
                for _ in 0..200 {
                    let floor = cap * rng.uniform_range(0.0, 1.5);
                    let ri = rng.uniform_range(0.0, 48.999) as usize;
                    check(floor, rate_grid()[ri], grid[ri]);
                }
            }
        }
    }

    /// The certificate's histories: noisy runs of three families, an
    /// exact curve (zero residual at its parameters), a flat plateau at
    /// the initial loss, one that falls and goes flat, and a noisy run
    /// scaled by 1e-8 and by 1e6.
    fn certificate_cases() -> Vec<(String, f64, Vec<f64>)> {
        let mut cases: Vec<(String, f64, Vec<f64>)> = FAMILIES
            .iter()
            .map(|&(family, dataset)| {
                let (initial, history) = noisy_run(family, dataset);
                (format!("{family:?}"), initial, history)
            })
            .collect();
        let (initial, noisy) = long_noisy_run();
        cases.extend([
            ("exact".to_string(), 2.3, exact_history(2.3, 0.15, 0.8, 600)),
            ("flat".to_string(), 0.8, vec![0.8; 600]),
            ("plateau".to_string(), initial, plateau(&noisy)),
        ]);
        for k in [1e-8, 1e6] {
            let scaled = noisy.iter().map(|l| l * k).collect();
            cases.push((format!("x{k:e}"), initial * k, scaled));
        }
        cases
    }

    #[test]
    fn certificate_bounds_every_probe_of_every_step_size() {
        // For random incumbents, near the fit and anywhere in the floor
        // and rate ranges, and each of the refinement's step sizes (floor
        // moves of ±min_loss/32·2⁻ᵏ, rate factors 10^(±1/8) square-rooted
        // k times, clamped at 0, min_loss and the 1e-6 rate floor), the
        // certified bounds hold the difference of the two summed SSEs.
        let mut rng = SimRng::new(29);
        let (mut probes, mut decided) = (0u64, 0u64);
        for (what, initial, history) in certificate_cases() {
            for n in [3, 4, 5, 7, 12, 28, 64, 150, 377, 600] {
                let h = &history[..n];
                let sums = GridSums::of(h);
                let cap = floor_cap(h);
                let fitted = LossCurveFitter::new(initial).fit(h).unwrap();
                for i in 0..12 {
                    let b = match i {
                        // The fit, and curves near it.
                        0 => fitted,
                        1..=5 => FittedCurve {
                            floor: (fitted.floor * rng.uniform_range(0.9, 1.1)).clamp(0.0, cap),
                            rate: fitted.rate * rng.uniform_range(0.8, 1.25),
                            ..fitted
                        },
                        // The clamps: floor 0, floor min_loss, rate floor.
                        6 => FittedCurve {
                            floor: 0.0,
                            ..fitted
                        },
                        7 => FittedCurve {
                            floor: cap,
                            ..fitted
                        },
                        8 => FittedCurve {
                            rate: 1.1e-6,
                            ..fitted
                        },
                        _ => FittedCurve {
                            floor: cap * rng.uniform_range(0.0, 1.0),
                            rate: 10f64.powf(rng.uniform_range(-6.0, 4.0)),
                            ..fitted
                        },
                    };
                    let sse_b = b.sse(h);
                    // The grid winner's SSE only anchors two tangent
                    // bounds: any positive value is sound.
                    let mut cert = Certificate::new(
                        initial,
                        cap,
                        h,
                        &sums,
                        sse_b * rng.uniform_range(1.0, 4.0),
                    );
                    // A summed incumbent, and one that won by bound with a
                    // loose `s_hi`.
                    let summed = cert.summed(b, sse_b);
                    let by_bound =
                        cert.incumbent(b, None, summed.s_hi * rng.uniform_range(1.0, 2.0));
                    let mut floor_step = cap / 32.0;
                    let mut rate_factor = 10f64.powf(6.0 / 48.0);
                    for k in 0..=24 {
                        for (df, rf) in [
                            (floor_step, 1.0),
                            (-floor_step, 1.0),
                            (0.0, rate_factor),
                            (0.0, 1.0 / rate_factor),
                        ] {
                            let c = FittedCurve {
                                floor: (b.floor + df).clamp(0.0, cap),
                                rate: (b.rate * rf).max(RATE_FLOOR),
                                ..b
                            };
                            let d = c.sse(h) - sse_b;
                            for inc in [&summed, &by_bound] {
                                let Some((lo, hi)) = cert.bounds(inc, &c) else {
                                    continue;
                                };
                                assert!(
                                    lo <= d && d <= hi,
                                    "{what} n {n} incumbent {b:?} probe {c:?} k {k}: {lo:e} ≤ {d:e} ≤ {hi:e}"
                                );
                                probes += 1;
                                decided += u64::from(lo > 0.0 || hi < 0.0);
                            }
                        }
                        floor_step *= 0.5;
                        rate_factor = rate_factor.sqrt();
                    }
                }
                // Near-ties: an incumbent half a step below the best floor
                // at its rate, probed a step up, lands half a step above
                // it. ΔS is then ~0 while `B` is not, so the closed form's
                // own rounding is what the bounds must cover.
                let rate = fitted.rate;
                let (mut num, mut den) = (0.0, 0.0);
                for (i, &l) in h.iter().enumerate() {
                    let g = 1.0 / (1.0 + rate * (i + 1) as f64);
                    num += (1.0 - g) * (l - initial * g);
                    den += (1.0 - g) * (1.0 - g);
                }
                let best_floor = num / den;
                for k in 0..=24 {
                    let step = cap / 32.0 * 0.5f64.powi(k);
                    let b = FittedCurve {
                        floor: best_floor - step / 2.0,
                        ..fitted
                    };
                    let c = FittedCurve {
                        floor: b.floor + step,
                        ..b
                    };
                    if !(b.floor >= 0.0 && c.floor <= cap) {
                        continue;
                    }
                    let sse_b = b.sse(h);
                    let mut cert = Certificate::new(initial, cap, h, &sums, sse_b);
                    let inc = cert.summed(b, sse_b);
                    let d = c.sse(h) - sse_b;
                    if let Some((lo, hi)) = cert.bounds(&inc, &c) {
                        assert!(
                            lo <= d && d <= hi,
                            "{what} n {n} tie {k}: {lo:e} ≤ {d:e} ≤ {hi:e}"
                        );
                    }
                }
            }
        }
        // Sound bounds that decide nothing would pass the loop above; these
        // decide about 90% of the probes.
        assert!(
            decided * 10 > probes * 8,
            "decided {decided} of {probes} probes"
        );
    }

    #[test]
    fn refits_sum_few_probes() {
        // The certificate decides nearly every refinement probe; only
        // the few it cannot are summed. None of these refits sums one
        // (fleet refits sum 0.2 on average), of 96 probe slots. A margin
        // that quietly turned the certificate off would sum ~50.
        const CEILING: f64 = 12.0;
        let (initial, history) = long_noisy_run();
        for n in [28, 250] {
            let mut online = OnlinePredictor::new(initial);
            for &loss in &history[..n - 8] {
                online.observe(loss);
            }
            online.fitted();
            let before = decisions();
            for &loss in &history[n - 8..n] {
                online.observe(loss);
                online.fitted();
            }
            let after = decisions();
            let refits = (after.refits - before.refits) as f64;
            let summed = (after.summed - before.summed) as f64 / refits;
            assert_eq!(refits, 8.0);
            assert!(
                summed <= CEILING,
                "{n} epochs: {summed} probes summed per refit"
            );
        }
    }

    #[test]
    fn sse_within_matches_sse_when_under_bound() {
        let fit = FittedCurve {
            initial: 1.0,
            floor: 0.2,
            rate: 0.5,
        };
        let history = exact_history(1.0, 0.3, 0.4, 20);
        let full = fit.sse(&history);
        assert_eq!(
            full.to_bits(),
            fit.sse_within(&history, f64::INFINITY).to_bits()
        );
        assert_eq!(full.to_bits(), fit.sse_within(&history, full).to_bits());
        // A bound below the total stops early with some partial > bound.
        assert!(fit.sse_within(&history, full / 4.0) > full / 4.0);
    }

    #[test]
    fn fitted_sse_beats_naive_guess() {
        let history = exact_history(1.0, 0.3, 0.4, 15);
        let fit = LossCurveFitter::new(1.0).fit(&history).unwrap();
        let naive = FittedCurve {
            initial: 1.0,
            floor: 0.0,
            rate: 1.0,
        };
        assert!(fit.sse(&history) < naive.sse(&history));
        assert!(fit.sse(&history) < 1e-4);
    }
}

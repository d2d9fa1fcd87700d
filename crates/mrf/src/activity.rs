//! Edge and vertex activities: the factors of the MRF weight (paper eq. 1).

/// A symmetric non-negative `q × q` edge activity matrix `A_e`.
///
/// Stores both the raw entries and the normalized matrix
/// `Ã_e = A_e / max_{i,j} A_e(i,j)` that the LocalMetropolis filter uses.
///
/// # Example
/// ```
/// use lsl_mrf::EdgeActivity;
/// let a = EdgeActivity::coloring(3);
/// assert_eq!(a.get(0, 0), 0.0);
/// assert_eq!(a.get(0, 1), 1.0);
/// assert_eq!(a.normalized(1, 2), 1.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct EdgeActivity {
    q: usize,
    data: Vec<f64>,
    max: f64,
}

impl EdgeActivity {
    /// Builds an edge activity from a row-major `q × q` matrix.
    ///
    /// # Errors
    /// Returns a message if the data has the wrong length, contains a
    /// negative or non-finite entry, is all-zero, or is asymmetric.
    pub fn new(q: usize, data: Vec<f64>) -> Result<Self, String> {
        if q == 0 {
            return Err("domain size q must be positive".into());
        }
        if data.len() != q * q {
            return Err(format!("expected {} entries, got {}", q * q, data.len()));
        }
        let mut max = 0.0f64;
        for (idx, &x) in data.iter().enumerate() {
            if !x.is_finite() || x < 0.0 {
                return Err(format!(
                    "entry {idx} = {x} is not a finite non-negative value"
                ));
            }
            max = max.max(x);
        }
        if max == 0.0 {
            return Err("edge activity must have a positive entry".into());
        }
        for i in 0..q {
            for j in (i + 1)..q {
                if data[i * q + j] != data[j * q + i] {
                    return Err(format!("asymmetric at ({i}, {j})"));
                }
            }
        }
        Ok(EdgeActivity { q, data, max })
    }

    /// The all-ones activity (no interaction).
    pub fn uniform(q: usize) -> Self {
        EdgeActivity::new(q, vec![1.0; q * q]).expect("all-ones matrix is valid")
    }

    /// The proper-coloring activity: `A(i, i) = 0`, `A(i, j) = 1` for `i ≠ j`.
    ///
    /// # Panics
    /// Panics if `q < 2` (a 1-spin coloring activity would be all-zero).
    pub fn coloring(q: usize) -> Self {
        assert!(q >= 2, "coloring activity needs q >= 2");
        let mut data = vec![1.0; q * q];
        for i in 0..q {
            data[i * q + i] = 0.0;
        }
        EdgeActivity::new(q, data).expect("coloring matrix is valid")
    }

    /// The hardcore / independent-set activity on spins `{0 = out, 1 = in}`:
    /// `A(1, 1) = 0`, all other entries 1.
    pub fn hardcore() -> Self {
        EdgeActivity::new(2, vec![1.0, 1.0, 1.0, 0.0]).expect("hardcore matrix is valid")
    }

    /// The vertex-cover activity on spins `{0 = out, 1 = in}`: an edge may
    /// not have both endpoints out — `A(0, 0) = 0`, all other entries 1.
    pub fn vertex_cover() -> Self {
        EdgeActivity::new(2, vec![0.0, 1.0, 1.0, 1.0]).expect("vertex-cover matrix is valid")
    }

    /// The Potts activity: `A(i, i) = beta`, `A(i, j) = 1` for `i ≠ j`
    /// (paper §2.2; `beta > 1` ferromagnetic, `beta < 1` antiferromagnetic).
    ///
    /// # Panics
    /// Panics if `beta` is negative or not finite.
    pub fn potts(q: usize, beta: f64) -> Self {
        assert!(
            beta.is_finite() && beta >= 0.0,
            "beta must be finite and >= 0"
        );
        let mut data = vec![1.0; q * q];
        for i in 0..q {
            data[i * q + i] = beta;
        }
        EdgeActivity::new(q, data).expect("potts matrix is valid")
    }

    /// The Ising activity (`q = 2` Potts).
    pub fn ising(beta: f64) -> Self {
        EdgeActivity::potts(2, beta)
    }

    /// Domain size `q`.
    #[inline]
    pub fn q(&self) -> usize {
        self.q
    }

    /// Raw entry `A(a, b)`.
    #[inline]
    pub fn get(&self, a: u32, b: u32) -> f64 {
        self.data[a as usize * self.q + b as usize]
    }

    /// Normalized entry `Ã(a, b) = A(a, b) / max A` — a probability in
    /// `[0, 1]`, the building block of the LocalMetropolis filter.
    #[inline]
    pub fn normalized(&self, a: u32, b: u32) -> f64 {
        self.get(a, b) / self.max
    }

    /// Largest entry `max_{i,j} A(i, j)`.
    #[inline]
    pub fn max_entry(&self) -> f64 {
        self.max
    }

    /// Whether every entry is 0 or `max` — then every LocalMetropolis edge
    /// coin is deterministic (the coloring/hardcore fast path).
    pub fn is_hard_constraint(&self) -> bool {
        self.data.iter().all(|&x| x == 0.0 || x == self.max)
    }
}

/// A non-negative vertex activity vector `b_v ∈ R^q`.
///
/// # Example
/// ```
/// use lsl_mrf::VertexActivity;
/// let b = VertexActivity::hardcore(0.5);
/// assert_eq!(b.get(1), 0.5);
/// assert_eq!(b.total(), 1.5);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct VertexActivity {
    data: Vec<f64>,
    total: f64,
    /// The [`VertexActivity::sample`] ladder as a step function of its
    /// 53-bit draw (see [`VertexActivity::breakpoints`]).
    breakpoints: Vec<u64>,
}

/// The number of distinct 53-bit draws behind one uniform `f64`.
const DRAWS: u64 = 1 << 53;

impl VertexActivity {
    /// Builds a vertex activity from its `q` entries.
    ///
    /// # Errors
    /// Returns a message if the vector is empty, has a negative or
    /// non-finite entry, or sums to zero (no spin could ever be proposed).
    pub fn new(data: Vec<f64>) -> Result<Self, String> {
        if data.is_empty() {
            return Err("vertex activity must be non-empty".into());
        }
        let mut total = 0.0;
        for (idx, &x) in data.iter().enumerate() {
            if !x.is_finite() || x < 0.0 {
                return Err(format!(
                    "entry {idx} = {x} is not a finite non-negative value"
                ));
            }
            total += x;
        }
        if total == 0.0 {
            return Err("vertex activity must have a positive entry".into());
        }
        let mut act = VertexActivity {
            data,
            total,
            breakpoints: Vec::new(),
        };
        act.breakpoints = act.find_breakpoints();
        Ok(act)
    }

    /// The ladder's state after subtracting entry `c` from the scaled
    /// draw `k`, in the exact float-op order of
    /// [`VertexActivity::sample`].
    fn residual(&self, k: u64, c: usize) -> f64 {
        let mut target = k as f64 * (1.0 / DRAWS as f64) * self.total;
        for &w in &self.data[..=c] {
            target -= w;
        }
        target
    }

    /// Each breakpoint by search over the ladder itself. The ladder
    /// returns more than `c` iff its residual after entry `c` is still
    /// non-negative (residuals only fall, and the slack fallback is the
    /// last positive entry, above every such `c`), so breakpoint `c` is
    /// the least draw with `residual(k, c) ≥ 0`: monotone in `k`, since
    /// every float op of the ladder is. The search gallops from the
    /// exact-arithmetic estimate, which rounding rarely moves by more
    /// than a few draws, then bisects the bracket.
    fn find_breakpoints(&self) -> Vec<u64> {
        let last = self
            .data
            .iter()
            .rposition(|&w| w > 0.0)
            .expect("total > 0 guarantees a positive entry");
        let mut partial = 0.0;
        let mut floor = 0;
        (0..self.data.len() - 1)
            .map(|c| {
                partial += self.data[c];
                if c >= last {
                    return DRAWS;
                }
                let guess = (partial / self.total * DRAWS as f64).ceil() as u64;
                floor = least_draw(floor, guess, |k| self.residual(k, c) >= 0.0);
                floor
            })
            .collect()
    }

    /// The all-ones activity (uniform external field).
    pub fn uniform(q: usize) -> Self {
        VertexActivity::new(vec![1.0; q]).expect("all-ones vector is valid")
    }

    /// Hardcore vertex activity `b = (1, λ)` with fugacity `λ > 0`.
    ///
    /// # Panics
    /// Panics if `lambda` is not finite and positive.
    pub fn hardcore(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "fugacity must be finite and positive"
        );
        VertexActivity::new(vec![1.0, lambda]).expect("hardcore vector is valid")
    }

    /// List-coloring indicator: `b(c) = 1` iff `c` appears in `list`.
    ///
    /// # Panics
    /// Panics if the list is empty or contains a color `>= q`.
    pub fn list_indicator(q: usize, list: &[u32]) -> Self {
        assert!(!list.is_empty(), "color list must be non-empty");
        let mut data = vec![0.0; q];
        for &c in list {
            assert!((c as usize) < q, "color {c} out of range for q = {q}");
            data[c as usize] = 1.0;
        }
        VertexActivity::new(data).expect("indicator vector is valid")
    }

    /// Domain size `q`.
    #[inline]
    pub fn q(&self) -> usize {
        self.data.len()
    }

    /// Entry `b(c)`.
    #[inline]
    pub fn get(&self, c: u32) -> f64 {
        self.data[c as usize]
    }

    /// Sum of all entries (the proposal normalizer of LocalMetropolis).
    #[inline]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// The proposal ladder of [`VertexActivity::sample`] as a table:
    /// `sample` is a nondecreasing step function of its 53-bit draw
    /// `k` (the generator's next `u64`, shifted right by 11), and entry
    /// `c` of this slice is the least `k` for which it returns more
    /// than `c` (`2⁵³`, past every draw, if it never does). There are
    /// `q − 1` entries, nondecreasing, computed once when the activity
    /// is built.
    ///
    /// # Example
    /// ```
    /// use lsl_mrf::VertexActivity;
    /// let b = VertexActivity::uniform(4);
    /// assert_eq!(b.breakpoints(), &[1 << 51, 2 << 51, 3 << 51]);
    /// ```
    pub fn breakpoints(&self) -> &[u64] {
        &self.breakpoints
    }

    /// The spin [`VertexActivity::sample`] draws from a generator whose
    /// next `u64` is `head`: the number of breakpoints at or below the
    /// draw.
    #[inline]
    pub fn sample_head(&self, head: u64) -> u32 {
        let k = head >> 11;
        self.breakpoints.partition_point(|&b| b <= k) as u32
    }

    /// Samples a spin with probability proportional to `b` — the
    /// LocalMetropolis *propose* step. This ladder is the oracle the
    /// [`VertexActivity::breakpoints`] table is checked against.
    pub fn sample(&self, rng: &mut impl rand::Rng) -> u32 {
        use rand::RngExt;
        let mut target = rng.random::<f64>() * self.total;
        for (c, &w) in self.data.iter().enumerate() {
            target -= w;
            if target < 0.0 {
                return c as u32;
            }
        }
        // Floating-point slack: return the last spin with positive weight.
        self.data
            .iter()
            .rposition(|&w| w > 0.0)
            .expect("total > 0 guarantees a positive entry") as u32
    }
}

/// The least draw `k ≥ lo` satisfying `holds`, which must be monotone
/// (false, then true) on `lo..2⁵³` and is taken as true at `2⁵³`:
/// galloping from `guess` to a bracket, then bisecting it.
fn least_draw(mut lo: u64, guess: u64, holds: impl Fn(u64) -> bool) -> u64 {
    let holds = |k: u64| k >= DRAWS || holds(k);
    let mut hi = guess.clamp(lo, DRAWS);
    let mut step = 1;
    if holds(hi) {
        while hi > lo {
            let probe = hi.saturating_sub(step).max(lo);
            if !holds(probe) {
                lo = probe + 1;
                break;
            }
            hi = probe;
            step *= 2;
        }
    } else {
        loop {
            lo = hi + 1;
            hi = (hi + step).min(DRAWS);
            if holds(hi) {
                break;
            }
            step *= 2;
        }
    }
    // Now `lo ≤ answer ≤ hi` and `holds(hi)`.
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if holds(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn coloring_matrix_entries() {
        let a = EdgeActivity::coloring(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(a.get(i, j), if i == j { 0.0 } else { 1.0 });
            }
        }
        assert!(a.is_hard_constraint());
        assert_eq!(a.max_entry(), 1.0);
    }

    #[test]
    fn hardcore_matrix() {
        let a = EdgeActivity::hardcore();
        assert_eq!(a.get(1, 1), 0.0);
        assert_eq!(a.get(0, 1), 1.0);
        assert!(a.is_hard_constraint());
    }

    #[test]
    fn potts_not_hard() {
        let a = EdgeActivity::potts(3, 0.5);
        assert!(!a.is_hard_constraint());
        assert_eq!(a.normalized(0, 0), 0.5);
        assert_eq!(a.normalized(0, 1), 1.0);
    }

    #[test]
    fn rejects_bad_matrices() {
        assert!(EdgeActivity::new(2, vec![1.0, 0.0, 1.0, 0.0]).is_err()); // asymmetric
        assert!(EdgeActivity::new(2, vec![0.0; 4]).is_err()); // all-zero
        assert!(EdgeActivity::new(2, vec![1.0, -1.0, -1.0, 1.0]).is_err()); // negative
        assert!(EdgeActivity::new(2, vec![1.0; 3]).is_err()); // wrong size
        assert!(EdgeActivity::new(0, vec![]).is_err()); // q = 0
    }

    #[test]
    fn vertex_activity_validation() {
        assert!(VertexActivity::new(vec![]).is_err());
        assert!(VertexActivity::new(vec![0.0, 0.0]).is_err());
        assert!(VertexActivity::new(vec![1.0, f64::NAN]).is_err());
        assert!(VertexActivity::new(vec![0.0, 2.0]).is_ok());
    }

    #[test]
    fn list_indicator_entries() {
        let b = VertexActivity::list_indicator(5, &[1, 3]);
        assert_eq!(b.get(0), 0.0);
        assert_eq!(b.get(1), 1.0);
        assert_eq!(b.get(3), 1.0);
        assert_eq!(b.total(), 2.0);
    }

    #[test]
    fn sampling_respects_support() {
        let b = VertexActivity::list_indicator(4, &[2]);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            assert_eq!(b.sample(&mut rng), 2);
        }
    }

    /// A generator whose every draw is one fixed `u64`.
    struct Fixed(u64);

    impl rand::TryRng for Fixed {
        type Error = std::convert::Infallible;
        fn try_next_u32(&mut self) -> Result<u32, Self::Error> {
            Ok((self.0 >> 32) as u32)
        }
        fn try_next_u64(&mut self) -> Result<u64, Self::Error> {
            Ok(self.0)
        }
        fn try_fill_bytes(&mut self, _: &mut [u8]) -> Result<(), Self::Error> {
            unreachable!("the ladder draws one u64")
        }
    }

    /// The spin the ladder returns for the 53-bit draw `k`.
    fn ladder_at(b: &VertexActivity, k: u64) -> u32 {
        b.sample(&mut Fixed(k << 11))
    }

    #[test]
    fn breakpoint_table_matches_the_ladder() {
        use rand::RngExt;
        let mut palettes: Vec<VertexActivity> = [3, 5, 12, 16]
            .into_iter()
            .map(VertexActivity::uniform)
            .collect();
        palettes.push(VertexActivity::hardcore(1.0));
        palettes.push(VertexActivity::hardcore(0.8));
        palettes.push(VertexActivity::new(vec![0.0, 1e-9, 0.7, 0.0, 2.5, 1e-9, 0.0]).unwrap());
        palettes.push(VertexActivity::list_indicator(9, &[0, 4, 8]));
        let mut rng = StdRng::seed_from_u64(17);
        for b in &palettes {
            let bps = b.breakpoints();
            assert_eq!(bps.len(), b.q() - 1);
            assert!(bps.windows(2).all(|w| w[0] <= w[1]));
            for _ in 0..100_000 {
                let head: u64 = rng.random();
                assert_eq!(
                    b.sample_head(head),
                    ladder_at(b, head >> 11),
                    "{b:?} at {head}"
                );
            }
            // Both sides of every step, and the ends of the draw range.
            let edges = bps
                .iter()
                .filter(|&&k| k < DRAWS)
                .flat_map(|&k| k.saturating_sub(2)..k + 3);
            for k in edges
                .chain([0, 1, DRAWS - 2, DRAWS - 1])
                .filter(|&k| k < DRAWS)
            {
                assert_eq!(b.sample_head(k << 11), ladder_at(b, k), "{b:?} at draw {k}");
            }
        }
    }

    #[test]
    fn sampling_roughly_proportional() {
        let b = VertexActivity::new(vec![1.0, 3.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let n = 40_000;
        let ones = (0..n).filter(|_| b.sample(&mut rng) == 1).count();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.02, "frac = {frac}");
    }
}

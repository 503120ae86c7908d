use serde::{Deserialize, Serialize};
use std::fmt;

/// A single Ising spin, `Up` = +1 or `Down` = -1.
///
/// ```
/// use saim_ising::Spin;
/// assert_eq!(Spin::Up.value(), 1);
/// assert_eq!(Spin::Down.flipped(), Spin::Up);
/// assert_eq!(Spin::from_sign(-3.5), Spin::Down);
/// ```
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub enum Spin {
    /// The -1 spin value.
    #[default]
    Down,
    /// The +1 spin value.
    Up,
}

impl Spin {
    /// Numeric value of the spin: +1 for `Up`, -1 for `Down`.
    pub fn value(self) -> i8 {
        match self {
            Spin::Up => 1,
            Spin::Down => -1,
        }
    }

    /// Numeric value as `f64`, convenient in energy expressions.
    pub fn value_f64(self) -> f64 {
        f64::from(self.value())
    }

    /// The opposite spin.
    pub fn flipped(self) -> Spin {
        match self {
            Spin::Up => Spin::Down,
            Spin::Down => Spin::Up,
        }
    }

    /// Classifies the sign of `v`: non-negative maps to `Up`, negative to `Down`.
    ///
    /// This matches the paper's p-bit update `m_i = sign(tanh(βI_i) + rand)`,
    /// where an exact zero is taken as +1.
    pub fn from_sign(v: f64) -> Spin {
        if v >= 0.0 {
            Spin::Up
        } else {
            Spin::Down
        }
    }

    /// The binary value associated with the spin under `x = (1+s)/2`.
    pub fn to_bit(self) -> u8 {
        match self {
            Spin::Up => 1,
            Spin::Down => 0,
        }
    }

    /// The spin associated with the binary value under `s = 2x - 1`.
    ///
    /// Any nonzero bit maps to `Up`.
    pub fn from_bit(bit: u8) -> Spin {
        if bit == 0 {
            Spin::Down
        } else {
            Spin::Up
        }
    }
}

impl fmt::Display for Spin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Spin::Up => write!(f, "+1"),
            Spin::Down => write!(f, "-1"),
        }
    }
}

/// A configuration of `N` Ising spins `s ∈ {-1,+1}^N`.
///
/// Internally stored as `i8` for cache-friendly Gibbs sweeps.
///
/// ```
/// use saim_ising::{SpinState, Spin};
/// let s = SpinState::from_values(&[1, -1, 1]);
/// assert_eq!(s.len(), 3);
/// assert_eq!(s.spin(1), Spin::Down);
/// assert_eq!(s.to_binary().bits(), &[1, 0, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SpinState {
    values: Vec<i8>,
}

impl SpinState {
    /// Creates the all-down (-1) state of `n` spins.
    pub fn all_down(n: usize) -> Self {
        SpinState {
            values: vec![-1; n],
        }
    }

    /// Creates the all-up (+1) state of `n` spins.
    pub fn all_up(n: usize) -> Self {
        SpinState { values: vec![1; n] }
    }

    /// Builds a state from raw ±1 values.
    ///
    /// # Panics
    ///
    /// Panics if any entry is not +1 or -1.
    pub fn from_values(values: &[i8]) -> Self {
        assert!(
            values.iter().all(|&v| v == 1 || v == -1),
            "spin values must be +1 or -1"
        );
        SpinState {
            values: values.to_vec(),
        }
    }

    /// Builds a state from typed spins.
    pub fn from_spins(spins: &[Spin]) -> Self {
        SpinState {
            values: spins.iter().map(|s| s.value()).collect(),
        }
    }

    /// Number of spins.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the state holds zero spins.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The spin at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn spin(&self, index: usize) -> Spin {
        Spin::from_bit(u8::from(self.values[index] > 0))
    }

    /// The ±1 value at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn value(&self, index: usize) -> i8 {
        self.values[index]
    }

    /// Raw ±1 values as a slice.
    pub fn values(&self) -> &[i8] {
        &self.values
    }

    /// Sets the spin at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn set(&mut self, index: usize, spin: Spin) {
        self.values[index] = spin.value();
    }

    /// Flips the spin at `index` in place.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn flip(&mut self, index: usize) {
        self.values[index] = -self.values[index];
    }

    /// Builds a state from the signs of `±1.0` floats — the sweep engines'
    /// spin vectors — with [`SpinState::copy_from_signs`].
    pub fn from_signs(signs: &[f64]) -> Self {
        let mut state = SpinState::all_down(signs.len());
        state.copy_from_signs(signs);
        state
    }

    /// Overwrites this state with the signs of `signs` without
    /// reallocating: non-negative maps to +1 and negative to -1, like
    /// [`Spin::from_sign`]. This is the one `f64 → i8` export of the sweep
    /// engines, whose spin vectors are `±1.0` floats; their best-state
    /// tracking uses it instead of building a fresh state on every
    /// improvement.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn copy_from_signs(&mut self, signs: &[f64]) {
        assert_eq!(self.values.len(), signs.len(), "state length mismatch");
        for (v, &s) in self.values.iter_mut().zip(signs) {
            *v = if s >= 0.0 { 1 } else { -1 };
        }
    }

    /// Converts to the binary domain under `x = (1+s)/2`.
    pub fn to_binary(&self) -> BinaryState {
        BinaryState {
            bits: self.values.iter().map(|&v| u8::from(v > 0)).collect(),
        }
    }

    /// Number of up spins.
    pub fn count_up(&self) -> usize {
        self.values.iter().filter(|&&v| v > 0).count()
    }

    /// Iterates over the spins.
    pub fn iter(&self) -> impl Iterator<Item = Spin> + '_ {
        self.values.iter().map(|&v| Spin::from_bit(u8::from(v > 0)))
    }
}

impl FromIterator<Spin> for SpinState {
    fn from_iter<I: IntoIterator<Item = Spin>>(iter: I) -> Self {
        SpinState {
            values: iter.into_iter().map(|s| s.value()).collect(),
        }
    }
}

impl fmt::Display for SpinState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}", if *v > 0 { '+' } else { '-' })?;
        }
        write!(f, "]")
    }
}

/// A configuration of `N` binary variables `x ∈ {0,1}^N`.
///
/// ```
/// use saim_ising::BinaryState;
/// let x = BinaryState::from_bits(&[1, 0, 1, 1]);
/// assert_eq!(x.count_ones(), 3);
/// assert_eq!(x.to_spins().values(), &[1, -1, 1, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BinaryState {
    bits: Vec<u8>,
}

impl BinaryState {
    /// The all-zeros state of `n` variables.
    pub fn zeros(n: usize) -> Self {
        BinaryState { bits: vec![0; n] }
    }

    /// The all-ones state of `n` variables.
    pub fn ones(n: usize) -> Self {
        BinaryState { bits: vec![1; n] }
    }

    /// Builds a state from raw bits.
    ///
    /// # Panics
    ///
    /// Panics if any entry is not 0 or 1.
    pub fn from_bits(bits: &[u8]) -> Self {
        assert!(bits.iter().all(|&b| b <= 1), "bits must be 0 or 1");
        BinaryState {
            bits: bits.to_vec(),
        }
    }

    /// Decodes the low `n` bits of `mask` (bit i of the mask becomes x_i).
    ///
    /// Handy for exhaustive enumeration of small models.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn from_mask(mask: u64, n: usize) -> Self {
        assert!(n <= 64, "mask decoding supports at most 64 variables");
        BinaryState {
            bits: (0..n).map(|i| ((mask >> i) & 1) as u8).collect(),
        }
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the state holds zero variables.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn bit(&self, index: usize) -> u8 {
        self.bits[index]
    }

    /// Whether variable `index` is selected (equal to 1).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn is_set(&self, index: usize) -> bool {
        self.bits[index] == 1
    }

    /// Raw bits as a slice.
    pub fn bits(&self) -> &[u8] {
        &self.bits
    }

    /// Sets the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()` or `bit > 1`.
    pub fn set(&mut self, index: usize, bit: u8) {
        assert!(bit <= 1, "bits must be 0 or 1");
        self.bits[index] = bit;
    }

    /// Flips the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn flip(&mut self, index: usize) {
        self.bits[index] ^= 1;
    }

    /// Number of ones.
    pub fn count_ones(&self) -> usize {
        self.bits.iter().filter(|&&b| b == 1).count()
    }

    /// Converts to the spin domain under `s = 2x - 1`.
    pub fn to_spins(&self) -> SpinState {
        SpinState {
            values: self
                .bits
                .iter()
                .map(|&b| if b == 1 { 1 } else { -1 })
                .collect(),
        }
    }

    /// A copy truncated to the first `n` variables.
    ///
    /// Used to strip slack variables off an extended knapsack state.
    ///
    /// # Panics
    ///
    /// Panics if `n > self.len()`.
    pub fn truncated(&self, n: usize) -> BinaryState {
        assert!(n <= self.bits.len(), "cannot truncate beyond length");
        BinaryState {
            bits: self.bits[..n].to_vec(),
        }
    }

    /// Iterates over the bits.
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        self.bits.iter().copied()
    }

    /// Dot product with a coefficient vector: `Σ_i a_i x_i`.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != self.len()`.
    pub fn dot(&self, coeffs: &[f64]) -> f64 {
        assert_eq!(coeffs.len(), self.bits.len(), "dot length mismatch");
        // branchless: the bit is the multiplier, so the loop vectorizes
        // (this sits on the constraint-violation path hit every SAIM
        // iteration)
        self.bits
            .iter()
            .zip(coeffs)
            .map(|(&b, &a)| f64::from(b) * a)
            .sum()
    }
}

impl FromIterator<u8> for BinaryState {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        let bits: Vec<u8> = iter.into_iter().collect();
        Self::from_bits(&bits)
    }
}

impl fmt::Display for BinaryState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.bits {
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_value_roundtrip() {
        assert_eq!(Spin::Up.value(), 1);
        assert_eq!(Spin::Down.value(), -1);
        assert_eq!(Spin::from_bit(Spin::Up.to_bit()), Spin::Up);
        assert_eq!(Spin::from_bit(Spin::Down.to_bit()), Spin::Down);
    }

    #[test]
    fn spin_sign_convention_zero_is_up() {
        assert_eq!(Spin::from_sign(0.0), Spin::Up);
        assert_eq!(Spin::from_sign(1e-300), Spin::Up);
        assert_eq!(Spin::from_sign(-1e-300), Spin::Down);
    }

    #[test]
    fn spin_binary_conversion_is_involutive() {
        let s = SpinState::from_values(&[1, -1, -1, 1]);
        assert_eq!(s.to_binary().to_spins(), s);
        let x = BinaryState::from_bits(&[0, 1, 1, 0, 1]);
        assert_eq!(x.to_spins().to_binary(), x);
    }

    #[test]
    fn mask_decoding_matches_bits() {
        let x = BinaryState::from_mask(0b1011, 4);
        assert_eq!(x.bits(), &[1, 1, 0, 1]);
        assert_eq!(BinaryState::from_mask(0, 3), BinaryState::zeros(3));
    }

    #[test]
    fn flip_and_set() {
        let mut s = SpinState::all_down(3);
        s.flip(1);
        assert_eq!(s.values(), &[-1, 1, -1]);
        s.set(0, Spin::Up);
        assert_eq!(s.count_up(), 2);

        let mut x = BinaryState::zeros(3);
        x.flip(2);
        x.set(0, 1);
        assert_eq!(x.count_ones(), 2);
        x.flip(2);
        assert_eq!(x.bits(), &[1, 0, 0]);
    }

    #[test]
    fn dot_product() {
        let x = BinaryState::from_bits(&[1, 0, 1]);
        assert_eq!(x.dot(&[2.0, 100.0, 3.0]), 5.0);
    }

    #[test]
    #[should_panic(expected = "spin values must be")]
    fn invalid_spin_values_panic() {
        let _ = SpinState::from_values(&[1, 0]);
    }

    #[test]
    #[should_panic(expected = "bits must be")]
    fn invalid_bits_panic() {
        let _ = BinaryState::from_bits(&[0, 2]);
    }

    #[test]
    fn truncation_strips_slack() {
        let x = BinaryState::from_bits(&[1, 0, 1, 1, 0]);
        assert_eq!(x.truncated(3).bits(), &[1, 0, 1]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SpinState::from_values(&[1, -1]).to_string(), "[+ -]");
        assert_eq!(BinaryState::from_bits(&[1, 0, 1]).to_string(), "101");
        assert_eq!(Spin::Up.to_string(), "+1");
    }

    #[test]
    fn from_iterator() {
        let s: SpinState = [Spin::Up, Spin::Down].into_iter().collect();
        assert_eq!(s.values(), &[1, -1]);
        let x: BinaryState = [1u8, 0, 1].into_iter().collect();
        assert_eq!(x.bits(), &[1, 0, 1]);
    }
}

//! Generic short-Weierstrass curve arithmetic (`y² = x³ + b`, a = 0) in
//! Jacobian coordinates, shared by G1 (over Fp) and G2 (over Fp2).

use std::fmt;

/// Minimal field-element interface the curve formulas need.
pub trait Felt: Copy + Clone + PartialEq + Eq + fmt::Debug {
    /// Additive identity.
    fn f_zero() -> Self;
    /// Multiplicative identity.
    fn f_one() -> Self;
    /// True iff zero.
    fn f_is_zero(&self) -> bool;
    /// Addition.
    fn f_add(&self, o: &Self) -> Self;
    /// Subtraction.
    fn f_sub(&self, o: &Self) -> Self;
    /// Negation.
    fn f_neg(&self) -> Self;
    /// Multiplication.
    fn f_mul(&self, o: &Self) -> Self;
    /// Squaring.
    fn f_square(&self) -> Self;
    /// Doubling.
    fn f_double(&self) -> Self;
    /// Inversion (`None` for zero).
    fn f_invert(&self) -> Option<Self>;
}

macro_rules! impl_felt {
    ($t:ty) => {
        impl Felt for $t {
            fn f_zero() -> Self {
                <$t>::zero()
            }
            fn f_one() -> Self {
                <$t>::one()
            }
            fn f_is_zero(&self) -> bool {
                self.is_zero()
            }
            fn f_add(&self, o: &Self) -> Self {
                self.add(o)
            }
            fn f_sub(&self, o: &Self) -> Self {
                self.sub(o)
            }
            fn f_neg(&self) -> Self {
                self.neg()
            }
            fn f_mul(&self, o: &Self) -> Self {
                self.mul(o)
            }
            fn f_square(&self) -> Self {
                self.square()
            }
            fn f_double(&self) -> Self {
                self.double()
            }
            fn f_invert(&self) -> Option<Self> {
                self.invert()
            }
        }
    };
}

impl_felt!(super::fp::Fp);
impl_felt!(super::fp2::Fp2);

/// Curve specification: the base field and the constant `b`.
pub trait CurveSpec: 'static + Copy + Clone + PartialEq + Eq + fmt::Debug {
    /// Base field of the curve.
    type F: Felt;
    /// The curve constant `b` in `y² = x³ + b`.
    fn b() -> Self::F;
    /// Human-readable group name.
    const NAME: &'static str;
}

/// A point in Jacobian projective coordinates `(X : Y : Z)`, affine
/// `(X/Z², Y/Z³)`; `Z = 0` encodes the point at infinity.
#[derive(Copy, Clone, Debug)]
pub struct Point<C: CurveSpec> {
    pub x: C::F,
    pub y: C::F,
    pub z: C::F,
}

/// An affine point or infinity.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Affine<C: CurveSpec> {
    /// The identity element.
    Infinity,
    /// A finite point `(x, y)`.
    Coords(C::F, C::F),
}

impl<C: CurveSpec> Point<C> {
    /// The identity element.
    pub fn infinity() -> Self {
        Point {
            x: C::F::f_one(),
            y: C::F::f_one(),
            z: C::F::f_zero(),
        }
    }

    /// Construct from affine coordinates, unchecked: the caller vouches for
    /// the curve equation.
    pub fn from_affine_coords(x: C::F, y: C::F) -> Self {
        Point {
            x,
            y,
            z: C::F::f_one(),
        }
    }

    /// Lift an [`Affine`] point.
    pub fn from_affine(a: &Affine<C>) -> Self {
        match a {
            Affine::Infinity => Self::infinity(),
            Affine::Coords(x, y) => Self::from_affine_coords(*x, *y),
        }
    }

    /// True iff this is the identity.
    pub fn is_infinity(&self) -> bool {
        self.z.f_is_zero()
    }

    /// Point doubling (a = 0 Jacobian formulas).
    pub fn double(&self) -> Self {
        if self.is_infinity() || self.y.f_is_zero() {
            return Self::infinity();
        }
        let a = self.x.f_square();
        let b = self.y.f_square();
        let c = b.f_square();
        let d = self.x.f_add(&b).f_square().f_sub(&a).f_sub(&c).f_double();
        let e = a.f_double().f_add(&a);
        let f = e.f_square();
        let x3 = f.f_sub(&d.f_double());
        let c8 = c.f_double().f_double().f_double();
        let y3 = e.f_mul(&d.f_sub(&x3)).f_sub(&c8);
        let z3 = self.y.f_mul(&self.z).f_double();
        Point {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Point addition.
    pub fn add(&self, other: &Self) -> Self {
        if self.is_infinity() {
            return *other;
        }
        if other.is_infinity() {
            return *self;
        }
        let z1z1 = self.z.f_square();
        let z2z2 = other.z.f_square();
        let u1 = self.x.f_mul(&z2z2);
        let u2 = other.x.f_mul(&z1z1);
        let s1 = self.y.f_mul(&other.z).f_mul(&z2z2);
        let s2 = other.y.f_mul(&self.z).f_mul(&z1z1);
        if u1 == u2 {
            if s1 == s2 {
                return self.double();
            }
            return Self::infinity();
        }
        let h = u2.f_sub(&u1);
        let i = h.f_double().f_square();
        let j = h.f_mul(&i);
        let r = s2.f_sub(&s1).f_double();
        let v = u1.f_mul(&i);
        let x3 = r.f_square().f_sub(&j).f_sub(&v.f_double());
        let y3 = r.f_mul(&v.f_sub(&x3)).f_sub(&s1.f_mul(&j).f_double());
        let z3 = self
            .z
            .f_add(&other.z)
            .f_square()
            .f_sub(&z1z1)
            .f_sub(&z2z2)
            .f_mul(&h);
        Point {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Negation.
    pub fn neg(&self) -> Self {
        Point {
            x: self.x,
            y: self.y.f_neg(),
            z: self.z,
        }
    }

    /// `self - other`.
    pub fn sub(&self, other: &Self) -> Self {
        self.add(&other.neg())
    }

    /// Scalar multiplication by a little-endian limb scalar: the one-term
    /// case of [`Point::multi_mul_scalar`]. Matches a binary
    /// double-and-add bit-for-bit (property-tested).
    pub fn mul_scalar(&self, k: &[u64]) -> Self {
        Self::multi_mul_scalar(&[(*self, k)])
    }

    /// Multi-scalar multiplication `Σ kᵢ·Pᵢ` over little-endian limb
    /// scalars (Straus's interleaving): each point gets width-4 wNAF digits
    /// and a table of odd multiples {P, 3P, 5P, 7P}, and all terms share
    /// **one** doubling chain — ~n doublings in total plus ~n/5 additions
    /// per term for n-bit scalars, versus ~n/2 additions and a doubling
    /// chain of its own for each plain double-and-add. Infinity terms are
    /// skipped; the empty sum is infinity.
    pub fn multi_mul_scalar(terms: &[(Self, &[u64])]) -> Self {
        let tables: Vec<([Self; 4], Vec<i8>)> = terms
            .iter()
            .filter(|(p, _)| !p.is_infinity())
            .map(|(p, k)| {
                let twice = p.double();
                let mut table = [*p; 4];
                for i in 1..4 {
                    table[i] = table[i - 1].add(&twice);
                }
                (table, wnaf_digits(k, 4))
            })
            .collect();
        let len = tables.iter().map(|(_, naf)| naf.len()).max().unwrap_or(0);
        let mut acc = Self::infinity();
        for i in (0..len).rev() {
            acc = acc.double();
            for (table, naf) in &tables {
                match naf.get(i).copied().unwrap_or(0) {
                    0 => {}
                    d if d > 0 => acc = acc.add(&table[d as usize >> 1]),
                    d => acc = acc.add(&table[(-d) as usize >> 1].neg()),
                }
            }
        }
        acc
    }

    /// Convert to affine coordinates.
    pub fn to_affine(&self) -> Affine<C> {
        if self.is_infinity() {
            return Affine::Infinity;
        }
        let z_inv = self.z.f_invert().expect("nonzero z");
        let z_inv2 = z_inv.f_square();
        let z_inv3 = z_inv2.f_mul(&z_inv);
        Affine::Coords(self.x.f_mul(&z_inv2), self.y.f_mul(&z_inv3))
    }
}

/// Width-`w` non-adjacent-form digits of a little-endian limb scalar:
/// little-endian digits, each zero or odd with `|d| < 2^(w-1)`, at most
/// one nonzero in any `w` consecutive positions. Empty for zero. At
/// `w = 2` this is the plain signed NAF (what the pairing engine walks:
/// the optimal-ate loop count and the BN parameter `x`).
pub(crate) fn wnaf_digits(k: &[u64], w: u32) -> Vec<i8> {
    debug_assert!((2..=7).contains(&w));
    let mut n = k.to_vec();
    n.push(0); // headroom for the +|d| carry
    let mask = (1u64 << w) - 1;
    let half = 1i64 << (w - 1);
    let mut digits = Vec::with_capacity(k.len() * 64 + 1);
    while n.iter().any(|&l| l != 0) {
        let d = if n[0] & 1 == 1 {
            let mut d = (n[0] & mask) as i64;
            if d >= half {
                d -= 1 << w;
            }
            if d > 0 {
                limbs_sub_small(&mut n, d as u64);
            } else {
                limbs_add_small(&mut n, (-d) as u64);
            }
            d as i8
        } else {
            0
        };
        digits.push(d);
        limbs_shr1(&mut n);
    }
    digits
}

fn limbs_sub_small(n: &mut [u64], v: u64) {
    let (d, mut borrow) = n[0].overflowing_sub(v);
    n[0] = d;
    let mut i = 1;
    while borrow {
        let (d, b) = n[i].overflowing_sub(1);
        n[i] = d;
        borrow = b;
        i += 1;
    }
}

fn limbs_add_small(n: &mut [u64], v: u64) {
    let (s, mut carry) = n[0].overflowing_add(v);
    n[0] = s;
    let mut i = 1;
    while carry {
        let (s, c) = n[i].overflowing_add(1);
        n[i] = s;
        carry = c;
        i += 1;
    }
}

fn limbs_shr1(n: &mut [u64]) {
    for i in 0..n.len() {
        let hi = n.get(i + 1).copied().unwrap_or(0);
        n[i] = (n[i] >> 1) | (hi << 63);
    }
}

impl<C: CurveSpec> PartialEq for Point<C> {
    fn eq(&self, other: &Self) -> bool {
        match (self.is_infinity(), other.is_infinity()) {
            (true, true) => return true,
            (true, false) | (false, true) => return false,
            _ => {}
        }
        // Cross-multiplied comparison avoids inversions.
        let z1z1 = self.z.f_square();
        let z2z2 = other.z.f_square();
        if self.x.f_mul(&z2z2) != other.x.f_mul(&z1z1) {
            return false;
        }
        let z1c = z1z1.f_mul(&self.z);
        let z2c = z2z2.f_mul(&other.z);
        self.y.f_mul(&z2c) == other.y.f_mul(&z1c)
    }
}

impl<C: CurveSpec> Eq for Point<C> {}

impl<C: CurveSpec> Affine<C> {
    /// True iff the identity.
    pub fn is_infinity(&self) -> bool {
        matches!(self, Affine::Infinity)
    }

    /// Check the curve equation `y² = x³ + b`.
    #[cfg(test)]
    pub(crate) fn is_on_curve(&self) -> bool {
        match self {
            Affine::Infinity => true,
            Affine::Coords(x, y) => y.f_square() == x.f_square().f_mul(x).f_add(&C::b()),
        }
    }
}

//! IEEE-754 binary16 (half precision) emulation.
//!
//! Kelle stores activations and KV vectors as 16-bit words in eDRAM
//! (§5: "activations and KV vectors are maintained in 16 bits").  The retention
//! faults injected by the two-dimensional adaptive refresh policy (2DRP) flip
//! individual *stored bits*, so the functional model needs a bit-exact 16-bit
//! representation with explicit encode/decode, not just `f32` arithmetic.
//!
//! This module is that representation: [`f32_to_f16_bits`] encodes with
//! round-to-nearest-even and [`f16_bits_to_f32`] decodes exactly, so the fault
//! lane can flip stored bits between the two.

/// Converts an `f32` to raw binary16 bits (round-to-nearest-even).
pub fn f32_to_f16_bits(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let mant = bits & 0x007F_FFFF;

    if exp == 0xFF {
        // Inf or NaN.
        let mant16 = if mant == 0 { 0 } else { 0x200 };
        return sign | 0x7C00 | mant16;
    }

    // Re-bias exponent: f32 bias 127, f16 bias 15.
    let unbiased = exp - 127;
    if unbiased > 15 {
        // Overflow -> infinity.
        return sign | 0x7C00;
    }
    if unbiased >= -14 {
        // Normal range.
        let exp16 = (unbiased + 15) as u16;
        let mant16 = (mant >> 13) as u16;
        let round_bit = (mant >> 12) & 1;
        let sticky = mant & 0x0FFF;
        let mut out = sign | (exp16 << 10) | mant16;
        if round_bit == 1 && (sticky != 0 || (mant16 & 1) == 1) {
            out = out.wrapping_add(1);
        }
        return out;
    }
    if unbiased >= -24 {
        // Subnormal range.
        let full_mant = mant | 0x0080_0000; // implicit leading 1
        let total_shift = 13 + ((-14 - unbiased) as u32);
        let mant16 = (full_mant >> total_shift) as u16;
        let round_bit = (full_mant >> (total_shift - 1)) & 1;
        let sticky_mask = (1u32 << (total_shift - 1)) - 1;
        let sticky = full_mant & sticky_mask;
        let mut out = sign | mant16;
        if round_bit == 1 && (sticky != 0 || (mant16 & 1) == 1) {
            out = out.wrapping_add(1);
        }
        return out;
    }
    // Underflow to signed zero.
    sign
}

/// Converts raw binary16 bits to an `f32`.
pub fn f16_bits_to_f32(bits: u16) -> f32 {
    let sign = ((bits & 0x8000) as u32) << 16;
    let exp = ((bits >> 10) & 0x1F) as u32;
    let mant = (bits & 0x3FF) as u32;

    let out_bits = if exp == 0 {
        if mant == 0 {
            sign
        } else {
            // Subnormal: normalize.
            let mut m = mant;
            let mut e = -14i32;
            while m & 0x400 == 0 {
                m <<= 1;
                e -= 1;
            }
            m &= 0x3FF;
            let exp32 = (e + 127) as u32;
            sign | (exp32 << 23) | (m << 13)
        }
    } else if exp == 0x1F {
        if mant == 0 {
            sign | 0x7F80_0000
        } else {
            sign | 0x7FC0_0000
        }
    } else {
        let exp32 = exp + (127 - 15);
        sign | (exp32 << 23) | (mant << 13)
    };
    f32::from_bits(out_bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: f32) -> f32 {
        f16_bits_to_f32(f32_to_f16_bits(v))
    }

    #[test]
    fn round_trip_exact_values() {
        for v in [0.0f32, 1.0, -1.0, 0.5, 2.0, 1.5, -3.25, 1024.0, 0.125] {
            assert_eq!(round_trip(v), v, "value {v}");
        }
    }

    #[test]
    fn round_trip_is_close_for_random_range() {
        for i in 0..1000 {
            let v = (i as f32 - 500.0) * 0.037;
            let r = round_trip(v);
            let tol = (v.abs() * 1e-3).max(1e-3);
            assert!((r - v).abs() <= tol, "value {v} -> {r}");
        }
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert_eq!(f32_to_f16_bits(1.0e6), 0x7C00);
        assert!(round_trip(1.0e6).is_infinite());
    }

    #[test]
    fn nan_propagates() {
        let bits = f32_to_f16_bits(f32::NAN);
        assert_eq!(bits & 0x7C00, 0x7C00);
        assert_ne!(bits & 0x3FF, 0);
        assert!(f16_bits_to_f32(bits).is_nan());
    }

    #[test]
    fn subnormal_round_trip() {
        let tiny = 3.0e-7f32;
        let r = round_trip(tiny);
        assert!((0.0..1e-4).contains(&r));
    }

    #[test]
    fn sign_bit_flip_negates() {
        let bits = f32_to_f16_bits(2.0);
        assert_eq!(f16_bits_to_f32(bits ^ (1 << 15)), -2.0);
    }

    #[test]
    fn msb_flip_larger_error_than_lsb_flip() {
        let bits = f32_to_f16_bits(0.73);
        let base = f16_bits_to_f32(bits);
        let msb = (f16_bits_to_f32(bits ^ (1 << 13)) - base).abs();
        let lsb = (f16_bits_to_f32(bits ^ 1) - base).abs();
        assert!(msb > lsb * 10.0);
    }

    #[test]
    fn zero_is_all_zero_bits() {
        assert_eq!(f32_to_f16_bits(0.0), 0);
        assert_eq!(f16_bits_to_f32(0), 0.0);
    }

    #[test]
    fn max_constant_matches() {
        assert_eq!(f16_bits_to_f32(0x7BFF), 65504.0);
        assert_eq!(f16_bits_to_f32(0xFBFF), -65504.0);
    }
}

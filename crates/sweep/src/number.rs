//! The text of an `f64`, written as its `Display` writes it.
//!
//! Every number of a sweep CSV row and of a served JSON answer is the
//! value's `Display`: the shortest digit string that reads back to the
//! same bits, laid out with no exponent. [`write_f64`] appends exactly those
//! bytes without going through `core::fmt`. It finds the digits with the
//! shortest-digit search of Ryū (Ulf Adams, *Ryū: fast float-to-string
//! conversion*, PLDI 2018) over `u128` products, with two departures that
//! make its digits `Display`'s own:
//!
//! - an exact tie between the two shortest candidates rounds up, as core's
//!   Dragon4 fallback does (`2·rem ≥ scale`), where Ryū rounds to even;
//! - the rounding interval is core's `decode`: every normal value whose
//!   mantissa field is zero has the narrower lower gap, the smallest normal
//!   included (Ryū widens it there, where the gap below is a subnormal's).
//!
//! The tests compare it with `format!("{value}")` over edge sets, every
//! power of two and ten and their neighbours, pinned ties and a million
//! random draws; an ignored test (run in CI in release) draws 100 million.

/// Bits of the stored mantissa.
const MANTISSA_BITS: u32 = 52;
/// The exponent bias.
const BIAS: i32 = 1023;
/// Bits of each entry of [`POW5_INV`] (ignoring its `+ 1`).
const POW5_INV_BITS: i32 = 125;
/// Bits of each entry of [`POW5`].
const POW5_BITS: i32 = 125;

/// A 1,024-bit unsigned integer, least significant limb first: wide enough
/// for `2^1023` and for `5^341`.
type Big = [u64; 16];

const fn big_mul5(x: Big) -> Big {
    let mut out = [0; 16];
    let mut carry = 0u128;
    let mut i = 0;
    while i < 16 {
        let product = x[i] as u128 * 5 + carry;
        out[i] = product as u64;
        carry = product >> 64;
        i += 1;
    }
    out
}

const fn big_div5(x: Big) -> Big {
    let mut out = [0; 16];
    let mut rem = 0u128;
    let mut i = 16;
    while i > 0 {
        i -= 1;
        let cur = (rem << 64) | x[i] as u128;
        out[i] = (cur / 5) as u64;
        rem = cur % 5;
    }
    out
}

/// The bit length of `x`.
const fn big_bits(x: &Big) -> i32 {
    let mut i = 16;
    while i > 0 {
        i -= 1;
        if x[i] != 0 {
            return 64 * i as i32 + 64 - x[i].leading_zeros() as i32;
        }
    }
    0
}

/// `⌊x / 2^shift⌋ mod 2^128`.
const fn big_shr(x: &Big, shift: i32) -> u128 {
    const fn limb(x: &Big, i: usize) -> u128 {
        if i < 16 {
            x[i] as u128
        } else {
            0
        }
    }
    let (at, offset) = ((shift / 64) as usize, (shift % 64) as u32);
    let wide = limb(x, at) | limb(x, at + 1) << 64;
    let top = limb(x, at + 2);
    if offset == 0 {
        wide
    } else {
        wide >> offset | top << (128 - offset)
    }
}

/// `5^i`, shifted to exactly [`POW5_BITS`] bits (truncating), for `i` in
/// `0..326`: the multipliers of a value below 1.
static POW5: [u128; 326] = {
    let mut table = [0; 326];
    let mut power: Big = [0; 16];
    power[0] = 1;
    let mut i = 0;
    while i < table.len() {
        let bits = big_bits(&power);
        table[i] = if bits > POW5_BITS {
            big_shr(&power, bits - POW5_BITS)
        } else {
            big_shr(&power, 0) << (POW5_BITS - bits)
        };
        power = big_mul5(power);
        i += 1;
    }
    table
};

/// `⌊2^(⌊log2 5^i⌋ + 125) / 5^i⌋ + 1` for `i` in `0..342`: the multipliers
/// of a value of 1 and above. Each is `⌊2^1023 / 5^i⌋` shifted down, and
/// dividing by 5 one step at a time floors exactly that.
static POW5_INV: [u128; 342] = {
    let mut table = [0; 342];
    let mut power: Big = [0; 16];
    power[0] = 1;
    let mut quotient: Big = [0; 16];
    quotient[15] = 1 << 63;
    let mut i = 0;
    while i < table.len() {
        let floor_log2 = big_bits(&power) - 1;
        table[i] = big_shr(&quotient, 1023 - (floor_log2 + POW5_INV_BITS)) + 1;
        power = big_mul5(power);
        quotient = big_div5(quotient);
        i += 1;
    }
    table
};

/// `⌈log2 5^e⌉` (1 for `e = 0`), for `e` in `0..=3528`.
const fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `⌊log10 2^e⌋`, for `e` in `0..=1650`.
const fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `⌊log10 5^e⌋`, for `e` in `0..=2620`.
const fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

/// Whether `5^p` divides `value`, which is not 0.
fn multiple_of_pow5(mut value: u64, p: u32) -> bool {
    let mut factor = 0;
    while value.is_multiple_of(5) {
        value /= 5;
        factor += 1;
    }
    factor >= p
}

/// `⌊m · mul / 2^j⌋` for `j ≥ 64`, from the two 64-bit halves of `mul`.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let low = u128::from(m) * (mul as u64 as u128);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// The shortest decimal `digits · 10^exponent` that reads back to the
/// finite, nonzero value whose stored fields are `ieee_mantissa` and
/// `ieee_exponent`, and of those the closest to it, an exact tie rounding
/// up.
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    let accept_bounds = m2 & 1 == 0;

    // The value and its interval's bounds, times 4 and in units of 2^e2:
    // `mv`, `mv + 2` and `mv - 1 - mm_shift`. A zero mantissa field has the
    // narrower gap below, as in core's `decode`.
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0);

    // Scale all three to a power of ten, and learn whether the lower
    // bound loses only zeros in the scaling (an exact upper bound that the
    // interval leaves out is stepped down instead).
    let (mut vr, mut vp, mut vm);
    let e10;
    let mut vm_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_INV_BITS + pow5_bits(q as i32) - 1;
        let j = -e2 + q as i32 + k;
        let mul = POW5_INV[q as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        // Only one of `mv - 1 - mm_shift`, `mv` and `mv + 2` can be a
        // multiple of 5.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5_bits(i) - POW5_BITS;
        let j = q as i32 - k;
        let mul = POW5[i as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        // `mv + 2` has a trailing zero bit, and `mv - 1 - mm_shift` one
        // when `mm_shift` is 1.
        if q <= 1 {
            if accept_bounds {
                vm_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter number, then
    // round at the last digit dropped: 5 and up rounds up, so an exact tie
    // (`…5000`) does too, and the digits dropped before it never matter.
    let mut removed = 0;
    let mut round_up = false;
    if !vm_trailing_zeros && vp / 100 > vm / 100 {
        round_up = vr % 100 >= 50;
        vr /= 100;
        vp /= 100;
        vm /= 100;
        removed += 2;
    }
    while vp / 10 > vm / 10 {
        vm_trailing_zeros &= vm % 10 == 0;
        round_up = vr % 10 >= 5;
        vr /= 10;
        vp /= 10;
        vm /= 10;
        removed += 1;
    }
    // A lower bound the interval holds may end in zeros it can still drop.
    if vm_trailing_zeros {
        while vm % 10 == 0 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vm /= 10;
            removed += 1;
        }
    }
    // Take `vr + 1` when `vr` is outside the interval or rounds up.
    let outside = vr == vm && (!accept_bounds || !vm_trailing_zeros);
    (vr + u64::from(outside || round_up), e10 + removed)
}

/// Two ASCII digits for each number below 100.
const DIGIT_PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Appends `count` zeros.
fn push_zeros(out: &mut String, mut count: usize) {
    const ZEROS: &str = "0000000000000000000000000000000000000000000000000000000000000000";
    while count > 0 {
        let run = count.min(ZEROS.len());
        out.push_str(&ZEROS[..run]);
        count -= run;
    }
}

/// Appends exactly the bytes of `value`'s `Display` (`format!("{value}")`):
/// `NaN`, `inf` and `-inf`; else a `-` on every negative value, `-0`
/// included, then the shortest digits that read back to `value`'s bits
/// (the closer one on a tie of length, an exact tie rounding up) laid out
/// with no exponent — `0.000ddd`, `dd.ddd` or `ddd000` — so `1.0` is `1`,
/// `f64::MAX` is 309 characters and `5e-324` is 326.
pub fn write_f64(out: &mut String, value: f64) {
    let bits = value.to_bits();
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = (bits >> MANTISSA_BITS) as u32 & 0x7FF;
    let negative = bits >> 63 != 0;
    if ieee_exponent == 0x7FF {
        out.push_str(match (ieee_mantissa != 0, negative) {
            (true, _) => "NaN",
            (false, false) => "inf",
            (false, true) => "-inf",
        });
        return;
    }
    if negative {
        out.push('-');
    }
    if ieee_exponent == 0 && ieee_mantissa == 0 {
        out.push('0');
        return;
    }
    let (mantissa, exponent) = shortest(ieee_mantissa, ieee_exponent);

    // The 17 digits (leading zeros included) at the end of a buffer of
    // zeros, and the text laid out around them in place when it fits.
    let mut text = [b'0'; 40];
    let end = text.len();
    write_17(mantissa, &mut text[end - 17..]);
    let len = mantissa.checked_ilog10().map_or(1, |log| log as usize + 1);
    let start = end - len;
    // Digits before the decimal point.
    let point = len as i32 + exponent;
    let (from, zeros_after) = if point <= 0 {
        let zeros = point.unsigned_abs() as usize;
        if zeros + 2 <= start {
            text[start - zeros - 1] = b'.';
            (start - zeros - 2, 0)
        } else {
            out.push_str("0.");
            push_zeros(out, zeros);
            (start, 0)
        }
    } else if (point as usize) < len {
        // Move the 17 bytes that end with the integer digits one place
        // left: a fixed length, so no call to `memmove`.
        let point = start + point as usize;
        text.copy_within(point - 17..point, point - 18);
        text[point - 1] = b'.';
        (start - 1, 0)
    } else {
        (start, point as usize - len)
    };
    // SAFETY: every byte of `text` is `b'0'`, `b'.'` or a byte of
    // `DIGIT_PAIRS` (indexed with bounds checks): ASCII, so UTF-8. Checking
    // it again with `from_utf8` cost 7 of 39 ns per number (release build,
    // x86-64 Xeon VM).
    out.push_str(unsafe { std::str::from_utf8_unchecked(&text[from..]) });
    push_zeros(out, zeros_after);
}

/// Writes the 17 decimal digits of `value`, below `10^17`, leading zeros
/// included, as bytes of [`DIGIT_PAIRS`]: three independent quotients, so
/// no long chain of divisions.
fn write_17(value: u64, text: &mut [u8]) {
    let (high, low) = (value / 100_000_000, (value % 100_000_000) as u32);
    text[0] = DIGIT_PAIRS[2 * (high / 100_000_000) as usize + 1];
    write_8((high % 100_000_000) as u32, &mut text[1..9]);
    write_8(low, &mut text[9..17]);
}

/// Writes the 8 decimal digits of `value`, below `10^8`, leading zeros
/// included, as bytes of [`DIGIT_PAIRS`].
fn write_8(value: u32, text: &mut [u8]) {
    let (high, low) = (value / 10_000, value % 10_000);
    for (i, pair) in [high / 100, high % 100, low / 100, low % 100]
        .into_iter()
        .enumerate()
    {
        let at = 2 * pair as usize;
        text[2 * i..2 * i + 2].copy_from_slice(&DIGIT_PAIRS[at..at + 2]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    /// Fails unless `write_f64` writes `value`'s `Display`, with `mine`
    /// and `display` as scratch buffers.
    fn check(value: f64, mine: &mut String, display: &mut String) {
        mine.clear();
        display.clear();
        write_f64(mine, value);
        write!(display, "{value}").expect("writing to a String cannot fail");
        assert_eq!(mine, display, "{value:?} (bits {:#018x})", value.to_bits());
    }

    fn check_all(values: impl IntoIterator<Item = f64>) {
        let (mut mine, mut display) = (String::new(), String::new());
        for value in values {
            check(value, &mut mine, &mut display);
            check(-value, &mut mine, &mut display);
        }
    }

    /// `value` moved `step` ulps along its bit pattern.
    fn ulp(value: f64, step: i64) -> f64 {
        f64::from_bits(value.to_bits().wrapping_add_signed(step))
    }

    /// The next output of SplitMix64 from `state`.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw: on even steps a raw bit pattern, on odd ones a value
    /// log-uniform in `[1e-8, 1e6]`, the magnitudes a sweep writes.
    fn draw(state: &mut u64) -> f64 {
        let bits = splitmix(state);
        if bits & 1 == 0 {
            f64::from_bits(splitmix(state))
        } else {
            let unit = (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64;
            10f64.powf(-8.0 + 14.0 * unit)
        }
    }

    /// Runs `count` draws from `seed` against `Display`.
    fn check_draws(seed: u64, count: u64) {
        let mut state = seed;
        let (mut mine, mut display) = (String::new(), String::new());
        for _ in 0..count {
            check(draw(&mut state), &mut mine, &mut display);
        }
    }

    /// The tables against values computed here in `u128`: their first
    /// entries (`5^0`), and every power of five below `2^126`.
    #[test]
    fn the_tables_hold_powers_of_five() {
        assert_eq!((POW5[0], POW5_INV[0]), (1 << 124, (1 << 125) + 1));
        for i in 1..=54 {
            let power = 5u128.pow(i);
            let bits = 128 - power.leading_zeros() as i32;
            let expected = if bits > POW5_BITS {
                power >> (bits - POW5_BITS)
            } else {
                power << (POW5_BITS - bits)
            };
            assert_eq!(POW5[i as usize], expected, "5^{i}");
            // ⌊2^(bits - 1 + 125) / 5^i⌋, one bit of the quotient at a
            // time, from the leading 1.
            let (mut quotient, mut rem) = (0u128, 1u128);
            for _ in 0..bits - 1 + POW5_INV_BITS {
                (quotient, rem) = (quotient << 1, rem << 1);
                if rem >= power {
                    rem -= power;
                    quotient |= 1;
                }
            }
            assert_eq!(POW5_INV[i as usize], quotient + 1, "1 / 5^{i}");
        }
    }

    #[test]
    fn edge_values_are_written_as_display_writes_them() {
        let mut values = vec![
            0.0,
            f64::NAN,
            f64::from_bits(0x7FF8_0000_0000_0001),
            f64::from_bits(0x7FF0_0000_0000_0001),
            f64::from_bits(0x7FFF_FFFF_FFFF_FFFF),
            f64::INFINITY,
            f64::MAX,
            ulp(f64::MAX, -1),
            f64::EPSILON,
            1.0,
            0.1,
            0.3,
            1.69e-8,
            3600.0,
        ];
        // Subnormals from the smallest up, and the largest.
        values.extend((1..=4096).map(f64::from_bits));
        values.extend((0..4096).map(|i| f64::from_bits(0x000F_FFFF_FFFF_FFFF - i)));
        values.extend((0..52).map(|shift| f64::from_bits(1 << shift)));
        // The smallest normal and its neighbourhood, where core's interval
        // is narrower below than Ryū's.
        values.extend((-64..=64).map(|step| ulp(f64::MIN_POSITIVE, step)));
        check_all(values);
    }

    #[test]
    fn powers_of_two_and_ten_and_their_neighbours_are_display() {
        let mut values = Vec::new();
        for e in -1074..=1023 {
            let power = 2f64.powi(e);
            values.extend([ulp(power, -1), power, ulp(power, 1)]);
        }
        for e in -323..=308 {
            let power: f64 = format!("1e{e}").parse().expect("a power of ten");
            values.extend([ulp(power, -1), power, ulp(power, 1)]);
        }
        check_all(values.into_iter().filter(|v| v.is_finite()));
    }

    #[test]
    fn integers_and_thousandths_are_display() {
        let mut values: Vec<f64> = (0..100_000).map(|i| i as f64).collect();
        values.extend((0..100_000).map(|i| i as f64 / 1000.0));
        for base in [1u64 << 53, 1 << 54, 1 << 60, u64::MAX / 3, 10u64.pow(17)] {
            values.extend((0..256).map(|i| (base - 128 + i) as f64));
        }
        values.extend((0..64).map(|shift| (1u64 << shift) as f64 * 1e5));
        check_all(values);
    }

    /// Exact ties between the two shortest candidates: core rounds them
    /// up, where Ryū rounds to even.
    #[test]
    fn an_exact_tie_rounds_up_as_display_does() {
        for (bits, text) in [
            (0x431f_1a38_d584_acd1, "2188638920190772.3"),
            (0xc2b3_cb57_b75b_3d10, "-21764070923069.063"),
            (0xc28b_82c4_f24a_0f40, "-3781057988929.9063"),
            (0xc2e0_f8e3_cf80_85d4, "-149289279685678.63"),
        ] {
            let value = f64::from_bits(bits);
            let mut out = String::new();
            write_f64(&mut out, value);
            assert_eq!(out, text, "{bits:#018x}");
            assert_eq!(format!("{value}"), text, "{bits:#018x}");
        }
    }

    #[test]
    fn a_million_random_draws_are_display() {
        check_draws(0x5EED, 1_000_000);
    }

    /// The long check: 100 million draws (about 15 s in release). Run with
    /// `cargo test --release -p ayd-sweep --lib number -- --ignored`.
    #[test]
    #[ignore = "long: run in release"]
    fn a_hundred_million_random_draws_are_display() {
        check_draws(0x1_0000_5EED, 100_000_000);
    }
}

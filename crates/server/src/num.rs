//! The row codec's number kernel: every number a row carries is written
//! and every row is split here, so the wire, the durable log and the
//! CLI's mutation log share one text form.
//!
//! * [`write_f64`] — the shortest decimal that parses back to the same
//!   `f64`, found with Ryū (Ulf Adams, "Ryū: fast float-to-string
//!   conversion", PLDI 2018) and laid out exactly as `Display` lays it
//!   out: no exponent form, `-0`, `inf`, `-inf`, `NaN`, and subnormals
//!   as `0.000…`. One rule differs from Ryū as published: when the
//!   exact value lies halfway between the two nearest shortest
//!   candidates, std's `Display` takes the larger digit, so this writer
//!   does too instead of rounding half to even.
//! * [`write_u64`] — decimal digits two at a time from a pair table,
//!   byte-identical to `Display`.
//! * [`Rows`] — a one-pass scanner that splits rows on `\n` and fields
//!   on exactly [`char::is_whitespace`]. A byte-class table handles
//!   ASCII; a `char` is decoded only at a non-ASCII byte (NBSP, U+0085,
//!   U+2028, U+3000 and the rest of Unicode's `White_Space` separate
//!   fields too). Blank and whitespace-only rows are skipped.

// ---------------------------------------------------------------------
// Integers
// ---------------------------------------------------------------------

/// `"00" "01" … "99"`: the two decimal digits of every value below 100.
const DIGIT_PAIRS: [u8; 200] = {
    let mut table = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
};

/// The decimal digits of `v` (no sign, no leading zeros), written into
/// the tail of `buf` two at a time.
fn digits(mut v: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut at = buf.len();
    while v >= 100 {
        let pair = 2 * (v % 100) as usize;
        v /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = 2 * v as usize;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + v as u8;
    }
    &buf[at..]
}

/// Appends `v` exactly as `Display` writes it.
pub(crate) fn write_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(digits(v, &mut [0; 20]));
}

// ---------------------------------------------------------------------
// Floats: Ryū
// ---------------------------------------------------------------------

const MANTISSA_BITS: u32 = 52;
const EXPONENT_MASK: u32 = 0x7ff;
const BIAS: i32 = 1023;

/// Bits kept of each power of five (`POW5`) and of each inverse power
/// (`POW5_INV`): enough for every `f64`, per the Ryū paper.
const POW5_BITCOUNT: u32 = 125;
const POW5_INV_BITCOUNT: u32 = 125;
const POW5_LEN: usize = 326;
const POW5_INV_LEN: usize = 342;

/// `⌈log2 5^e⌉` for `1 <= e <= 3528` (and 1 for `e = 0`): the bit
/// length of `5^e`.
const fn pow5bits(e: u32) -> u32 {
    ((e * 1_217_359) >> 19) + 1
}

/// `⌊log10 2^e⌋` for `e <= 1650`.
fn log10_pow2(e: u32) -> u32 {
    (e * 78_913) >> 18
}

/// `⌊log10 5^e⌋` for `e <= 2620`.
fn log10_pow5(e: u32) -> u32 {
    (e * 732_923) >> 20
}

/// Limbs of the table builders' big integers: 1024 bits hold `2^1023`
/// and `5^325` (755 bits).
const LIMBS: usize = 16;

const fn limb(x: &[u64; LIMBS], k: usize) -> u64 {
    if k < LIMBS {
        x[k]
    } else {
        0
    }
}

const fn bit_length(x: &[u64; LIMBS]) -> u32 {
    let mut k = LIMBS;
    while k > 0 {
        k -= 1;
        if x[k] != 0 {
            return 64 * k as u32 + 64 - x[k].leading_zeros();
        }
    }
    0
}

/// The low 128 bits of `x >> shift`.
const fn shr128(x: &[u64; LIMBS], shift: u32) -> u128 {
    let k = (shift / 64) as usize;
    let low = limb(x, k) as u128 | (limb(x, k + 1) as u128) << 64;
    match shift % 64 {
        0 => low,
        bit => (low >> bit) | (limb(x, k + 2) as u128) << (128 - bit),
    }
}

/// `POW5[i]` is `5^i` scaled to its top [`POW5_BITCOUNT`] bits:
/// `⌊5^i / 2^(bitlen(5^i) − 125)⌋`, shifted left when `5^i` is shorter.
static POW5: [u128; POW5_LEN] = {
    let mut table = [0u128; POW5_LEN];
    let mut pow = [0u64; LIMBS];
    pow[0] = 1;
    let mut i = 0;
    while i < POW5_LEN {
        let len = bit_length(&pow);
        table[i] = if len <= POW5_BITCOUNT {
            shr128(&pow, 0) << (POW5_BITCOUNT - len)
        } else {
            shr128(&pow, len - POW5_BITCOUNT)
        };
        // pow *= 5
        let mut carry = 0u128;
        let mut k = 0;
        while k < LIMBS {
            let v = pow[k] as u128 * 5 + carry;
            pow[k] = v as u64;
            carry = v >> 64;
            k += 1;
        }
        i += 1;
    }
    table
};

/// `POW5_INV[q]` is `⌊2^j / 5^q⌋ + 1` with `j = bitlen(5^q) − 1 + 125`.
/// It is cut from `x = ⌊2^1023 / 5^q⌋`, which one exact division by 5
/// per entry keeps current: `⌊⌊a / b⌋ / c⌋ = ⌊a / (b·c)⌋` for positive
/// integers, so `⌊x / 2^(1023 − j)⌋ = ⌊2^j / 5^q⌋`.
static POW5_INV: [u128; POW5_INV_LEN] = {
    let mut table = [0u128; POW5_INV_LEN];
    let mut x = [0u64; LIMBS];
    x[LIMBS - 1] = 1 << 63;
    let mut q = 0;
    while q < POW5_INV_LEN {
        let j = pow5bits(q as u32) - 1 + POW5_INV_BITCOUNT;
        table[q] = shr128(&x, 1023 - j) + 1;
        // x /= 5
        let mut rem = 0u128;
        let mut k = LIMBS;
        while k > 0 {
            k -= 1;
            let v = rem << 64 | x[k] as u128;
            x[k] = (v / 5) as u64;
            rem = v % 5;
        }
        q += 1;
    }
    table
};

/// `⌊m · mul / 2^shift⌋` for a 55-bit `m`, a 125-bit `mul` and
/// `shift > 64`.
fn mul_shift(m: u64, mul: u128, shift: u32) -> u64 {
    let low = u128::from(m) * (mul as u64 as u128);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (shift - 64)) as u64
}

/// Whether `5^p` divides `v` (`v > 0`).
fn multiple_of_pow5(mut v: u64, p: u32) -> bool {
    let mut count = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        count += 1;
    }
    count >= p
}

/// The shortest decimal `digits × 10^exponent` that reads back as the
/// finite, non-zero `f64` with these IEEE fields; among the shortest,
/// the one closest to the exact value, a tie going to the larger.
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    // Two extra bits so the interval bounds stay integers.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - BIAS - MANTISSA_BITS as i32 - 2,
            1 << MANTISSA_BITS | ieee_mantissa,
        )
    };
    // Round-half-even parsing maps the interval's bounds to this value
    // exactly when its mantissa is even.
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    // The gap below is half as wide at a power of two.
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let mm = mv - 1 - mm_shift;

    // The value (`vr`) and the interval's bounds (`vm`, `vp`) in a
    // decimal base `10^e10`, and whether `vm` is exact there.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_trailing_zeros = false;
    if e2 >= 0 {
        let e2 = e2 as u32;
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let mul = POW5_INV[q as usize];
        let shift = q + POW5_INV_BITCOUNT + pow5bits(q) - 1 - e2;
        vr = mul_shift(mv, mul, shift);
        vp = mul_shift(mv + 2, mul, shift);
        vm = mul_shift(mm, mul, shift);
        // At most one of mm, mv, mp is a multiple of 5; only mm's and
        // mp's exactness change the answer.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_trailing_zeros = multiple_of_pow5(mm, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mv + 2, q));
            }
        }
    } else {
        let minus_e2 = (-e2) as u32;
        let q = log10_pow5(minus_e2) - u32::from(minus_e2 > 1);
        e10 = q as i32 + e2;
        let i = minus_e2 - q;
        let mul = POW5[i as usize];
        let shift = q + POW5_BITCOUNT - pow5bits(i);
        vr = mul_shift(mv, mul, shift);
        vp = mul_shift(mv + 2, mul, shift);
        vm = mul_shift(mm, mul, shift);
        if q <= 1 {
            // Here a bound is exact when it has q trailing zero bits:
            // mp = mv + 2 always has one, mm has one iff mm_shift is 1.
            if accept_bounds {
                vm_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while a shorter decimal still fits the interval.
    let mut removed = 0;
    let mut last_removed_digit = 0;
    loop {
        let (vp10, vm10) = (vp / 10, vm / 10);
        if vp10 <= vm10 {
            break;
        }
        vm_trailing_zeros &= vm.is_multiple_of(10);
        last_removed_digit = vr % 10;
        (vr, vp, vm) = (vr / 10, vp10, vm10);
        removed += 1;
    }
    if vm_trailing_zeros {
        // An exact, acceptable lower bound may shed its zeros too.
        while vm.is_multiple_of(10) {
            last_removed_digit = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
    }
    // Round to nearest, a tie up (std's rule), and step off a lower
    // bound that does not read back as this value.
    let round_up = last_removed_digit >= 5 || (vr == vm && !(accept_bounds && vm_trailing_zeros));
    (vr + u64::from(round_up), e10 + removed)
}

/// Appends `v` exactly as `format!("{v}")` writes it.
pub(crate) fn write_f64(out: &mut Vec<u8>, v: f64) {
    let bits = v.to_bits();
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = (bits >> MANTISSA_BITS) as u32 & EXPONENT_MASK;
    if ieee_exponent == EXPONENT_MASK {
        let text: &[u8] = match (ieee_mantissa != 0, v < 0.0) {
            (true, _) => b"NaN",
            (false, true) => b"-inf",
            (false, false) => b"inf",
        };
        out.extend_from_slice(text);
        return;
    }
    if bits >> 63 != 0 {
        out.push(b'-');
    }
    if ieee_exponent == 0 && ieee_mantissa == 0 {
        out.push(b'0');
        return;
    }
    let (mantissa, exponent) = shortest(ieee_mantissa, ieee_exponent);
    let mut buf = [0; 20];
    let digits = digits(mantissa, &mut buf);
    // Where the decimal point falls, counted from the first digit.
    let point = exponent + digits.len() as i32;
    if point <= 0 {
        out.extend_from_slice(b"0.");
        out.resize(out.len() + point.unsigned_abs() as usize, b'0');
        out.extend_from_slice(digits);
    } else if (point as usize) < digits.len() {
        let (int, frac) = digits.split_at(point as usize);
        out.extend_from_slice(int);
        out.push(b'.');
        out.extend_from_slice(frac);
    } else {
        out.extend_from_slice(digits);
        out.resize(out.len() + point as usize - digits.len(), b'0');
    }
}

// ---------------------------------------------------------------------
// The row scanner
// ---------------------------------------------------------------------

/// Byte classes: a field byte, an ASCII separator, the row break, and
/// any byte of a non-ASCII `char` (which must be decoded to classify).
const FIELD: u8 = 0;
const SPACE: u8 = 1;
const NEWLINE: u8 = 2;
const WIDE: u8 = 3;

const CLASS: [u8; 256] = {
    let mut table = [FIELD; 256];
    // The ASCII members of `char::is_whitespace`: TAB, LF, VT, FF, CR
    // and SPACE (VT is not `u8::is_ascii_whitespace`, but it is here).
    table[b'\t' as usize] = SPACE;
    table[b'\n' as usize] = NEWLINE;
    table[0x0b] = SPACE;
    table[0x0c] = SPACE;
    table[b'\r' as usize] = SPACE;
    table[b' ' as usize] = SPACE;
    let mut b = 0x80;
    while b < 256 {
        table[b] = WIDE;
        b += 1;
    }
    table
};

/// The end of the run of printable ASCII (`!` to DEL) at `pos`: the
/// first byte that is ASCII whitespace, a control byte or non-ASCII.
/// Numbers are such runs, so it looks at eight bytes at a time: per
/// byte, a borrow out of `b − 0x21` or the top bit flags a stop. A
/// borrow can flag the bytes above a stop too, never below it, so the
/// lowest flag is exact.
fn printable_run(bytes: &[u8], mut pos: usize) -> usize {
    const LANES: u64 = 0x0101_0101_0101_0101;
    while let Some(chunk) = bytes.get(pos..pos + 8) {
        let word = u64::from_le_bytes(chunk.try_into().expect("an eight-byte chunk"));
        let stops = (word.wrapping_sub(0x21 * LANES) | word) & (0x80 * LANES);
        if stops != 0 {
            return pos + (stops.trailing_zeros() / 8) as usize;
        }
        pos += 8;
    }
    while bytes.get(pos).is_some_and(|&b| b > b' ' && b < 0x80) {
        pos += 1;
    }
    pos
}

/// What a run of separators stopped at.
enum Stop {
    Field,
    Newline,
    End,
}

/// Splits a text into rows of whitespace-separated fields in one pass.
pub(crate) struct Rows<'a> {
    text: &'a str,
    pos: usize,
    /// `true`: `\n` ends a row (a body of rows). `false`: the whole
    /// text is one row and `\n` is one more separator.
    split_rows: bool,
}

/// One non-blank row: its first `N` fields and how many it has.
pub(crate) struct Row<'a, const N: usize> {
    text: &'a str,
    fields: [&'a str; N],
    /// Fields in the row; `N + 1` stands for "more than `N`".
    count: usize,
    /// Byte offsets into `text`: the first field's start and end, and
    /// the row's end (its `\n` or the end of the text).
    start: usize,
    first_end: usize,
    end: usize,
    whole: bool,
}

impl<'a> Rows<'a> {
    /// The rows of a body, split on `\n`.
    pub(crate) fn body(text: &'a str) -> Rows<'a> {
        Rows {
            text,
            pos: 0,
            split_rows: true,
        }
    }

    /// All of `text` as one row (a `\n` inside it separates fields).
    pub(crate) fn line(text: &'a str) -> Rows<'a> {
        Rows {
            text,
            pos: 0,
            split_rows: false,
        }
    }

    /// The non-ASCII `char` at byte `pos`.
    fn wide_char(&self, pos: usize) -> char {
        self.text[pos..]
            .chars()
            .next()
            .expect("the scanner stops only on char boundaries inside the text")
    }

    /// Moves past separators to the next field, row break or the end.
    fn skip_separators(&mut self) -> Stop {
        let bytes = self.text.as_bytes();
        let mut pos = self.pos;
        let stop = loop {
            let Some(&b) = bytes.get(pos) else {
                break Stop::End;
            };
            match CLASS[b as usize] {
                FIELD => break Stop::Field,
                SPACE => pos += 1,
                NEWLINE if self.split_rows => break Stop::Newline,
                NEWLINE => pos += 1,
                _ => {
                    let c = self.wide_char(pos);
                    if !c.is_whitespace() {
                        break Stop::Field;
                    }
                    pos += c.len_utf8();
                }
            }
        };
        self.pos = pos;
        stop
    }

    /// Moves past one field.
    fn skip_field(&mut self) {
        let bytes = self.text.as_bytes();
        let mut pos = self.pos;
        loop {
            pos = printable_run(bytes, pos);
            match bytes.get(pos).map(|&b| CLASS[b as usize]) {
                Some(FIELD) => pos += 1,
                Some(WIDE) => {
                    let c = self.wide_char(pos);
                    if c.is_whitespace() {
                        break;
                    }
                    pos += c.len_utf8();
                }
                _ => break,
            }
        }
        self.pos = pos;
    }

    /// The next non-blank row, or `None` when the text is used up.
    pub(crate) fn next_row<const N: usize>(&mut self) -> Option<Row<'a, N>> {
        loop {
            match self.skip_separators() {
                Stop::Field => break,
                Stop::Newline => self.pos += 1,
                Stop::End => return None,
            }
        }
        let start = self.pos;
        let mut row = Row {
            text: self.text,
            fields: [""; N],
            count: 0,
            start,
            first_end: start,
            end: self.text.len(),
            whole: !self.split_rows,
        };
        loop {
            let field_start = self.pos;
            self.skip_field();
            if row.count == N {
                // One field too many: the row is malformed, so skip the
                // rest of it without splitting.
                row.count = N + 1;
                if self.split_rows {
                    if let Some(at) = self.text[self.pos..].find('\n') {
                        row.end = self.pos + at;
                    }
                }
                self.pos = (row.end + 1).min(self.text.len());
                return Some(row);
            }
            if row.count == 0 {
                row.first_end = self.pos;
            }
            row.fields[row.count] = &self.text[field_start..self.pos];
            row.count += 1;
            match self.skip_separators() {
                Stop::Field => {}
                Stop::Newline => {
                    row.end = self.pos;
                    self.pos += 1;
                    return Some(row);
                }
                Stop::End => return Some(row),
            }
        }
    }
}

impl<'a, const N: usize> Row<'a, N> {
    /// How many fields the row has (`N + 1`: more than `N`).
    pub(crate) fn count(&self) -> usize {
        self.count
    }

    /// The `i`-th field (`""` past the last one).
    pub(crate) fn field(&self, i: usize) -> &'a str {
        self.fields[i]
    }

    /// All `N` fields, when the row has exactly `N`.
    pub(crate) fn fields(&self) -> Option<[&'a str; N]> {
        (self.count == N).then_some(self.fields)
    }

    /// The row's text for messages: a body row trimmed, a whole-text
    /// row as given.
    pub(crate) fn line(&self) -> &'a str {
        if self.whole {
            self.text
        } else {
            self.text[self.start..self.end].trim_end()
        }
    }

    /// What follows the first field and the one separator `char` after
    /// it, up to the end of [`Row::line`] — `None` when nothing does.
    pub(crate) fn after_first(&self) -> Option<&'a str> {
        let line_end = if self.whole {
            self.text.len()
        } else {
            self.start + self.line().len()
        };
        let sep = self.text[self.first_end..line_end].chars().next()?;
        Some(&self.text[self.first_end + sep.len_utf8()..line_end])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn f64_text(v: f64) -> String {
        let mut out = Vec::new();
        write_f64(&mut out, v);
        String::from_utf8(out).expect("ASCII")
    }

    fn u64_text(v: u64) -> String {
        let mut out = Vec::new();
        write_u64(&mut out, v);
        String::from_utf8(out).expect("ASCII")
    }

    fn assert_display(v: f64) {
        assert_eq!(f64_text(v), format!("{v}"), "bits {:#018x}", v.to_bits());
    }

    /// Every power of two from 2^-1074 to 2^1023, each with both
    /// one-ulp neighbours (the interval is lopsided at a power of two).
    #[test]
    fn writer_matches_display_on_powers_of_two_and_their_neighbours() {
        let mut v = f64::from_bits(1); // 2^-1074
        while v.is_finite() {
            for bits in [v.to_bits() - 1, v.to_bits(), v.to_bits() + 1] {
                assert_display(f64::from_bits(bits));
                assert_display(-f64::from_bits(bits));
            }
            v *= 2.0;
        }
    }

    #[test]
    fn writer_matches_display_on_special_and_extreme_values() {
        for v in [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::EPSILON,
            f64::from_bits(1),                     // smallest subnormal
            f64::from_bits(0x000f_ffff_ffff_ffff), // largest subnormal
            f64::from_bits(0x0010_0000_0000_0001), // just above MIN_POSITIVE
            f64::from_bits(0x7fef_ffff_ffff_fffe), // just below MAX
            -f64::from_bits(1),
            1.0,
            0.1 + 0.2,
            1e300,
            2.5e-308,
        ] {
            assert_display(v);
        }
        assert_eq!(f64_text(-0.0), "-0");
        assert_eq!(f64_text(f64::NAN), "NaN");
        // The longest text: `-0.`, 323 zeros and a digit (`-5e-324`).
        assert_eq!(f64_text(-f64::from_bits(1)).len(), 327);
    }

    /// Values whose exact decimal lies halfway between the two nearest
    /// shortest candidates: std takes the larger digit, where Ryū's
    /// round-half-even would take the even one.
    #[test]
    fn writer_breaks_exact_ties_like_display() {
        for (bits, text) in [
            (0xc30b_7ed7_2297_c76a_u64, "-967410854328557.3"),
            (0x42d8_dea3_950e_1848, "109378025044065.13"),
            (0xc2a1_0156_8502_3620, "-9348722098459.063"),
        ] {
            let v = f64::from_bits(bits);
            assert_eq!(format!("{v}"), text, "the oracle itself");
            assert_eq!(f64_text(v), text);
        }
    }

    #[test]
    fn writer_matches_display_on_integers_and_decimals() {
        for i in 0..100_000u32 {
            let v = f64::from(i);
            assert_display(v);
            assert_display(-v);
            assert_display(v / 1000.0);
        }
    }

    #[test]
    fn writer_matches_display_from_1e15_to_1e23() {
        for e in 15..=23 {
            let v: f64 = format!("1e{e}").parse().expect("a float literal");
            for bits in v.to_bits() - 2..=v.to_bits() + 2 {
                assert_display(f64::from_bits(bits));
            }
        }
    }

    #[test]
    fn integer_writer_matches_display_at_every_digit_count() {
        let mut edges = vec![0, u64::MAX, u64::MAX - 1];
        let mut p = 1u64;
        while let Some(next) = p.checked_mul(10) {
            edges.extend([p - 1, p, p + 1, next - 1]);
            p = next;
        }
        edges.extend([p - 1, p, p + 1]);
        for v in edges {
            assert_eq!(u64_text(v), v.to_string());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        #[test]
        fn writer_matches_display_on_random_bit_patterns(bits in any::<u64>()) {
            let v = f64::from_bits(bits);
            prop_assert_eq!(f64_text(v), format!("{v}"));
        }

        #[test]
        fn writer_matches_display_on_coordinate_like_values(
            whole in 0u64..1_000_000,
            frac in any::<u64>(),
        ) {
            let v = whole as f64 + (frac >> 11) as f64 / (1u64 << 53) as f64;
            prop_assert_eq!(f64_text(v), format!("{v}"));
            prop_assert_eq!(f64_text(-v), format!("{}", -v));
        }

        #[test]
        fn integer_writer_matches_display(v in any::<u64>()) {
            prop_assert_eq!(u64_text(v), v.to_string());
        }
    }

    /// Ten million seeded bit patterns (`cargo test --release -p
    /// ringjoin_server -- --ignored`; CI runs it in release).
    #[test]
    #[ignore = "a long sweep; run with --ignored in release"]
    fn writer_matches_display_on_ten_million_bit_patterns() {
        use std::fmt::Write;
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut out = Vec::new();
        let mut oracle = String::new();
        for _ in 0..10_000_000 {
            // SplitMix64.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            let v = f64::from_bits(z ^ (z >> 31));
            out.clear();
            oracle.clear();
            write_f64(&mut out, v);
            write!(oracle, "{v}").expect("a String takes any text");
            assert_eq!(out, oracle.as_bytes(), "bits {:#018x}", v.to_bits());
        }
    }

    // -----------------------------------------------------------------
    // The power-of-five tables, checked against independent arithmetic
    // -----------------------------------------------------------------

    /// A little-endian big integer of 32-bit limbs, for checking only.
    #[derive(Clone, PartialEq, Eq, Debug)]
    struct Big(Vec<u32>);

    impl Big {
        fn from_u128(v: u128) -> Big {
            Big((0..4).map(|k| (v >> (32 * k)) as u32).collect()).trim()
        }

        fn pow2(e: u32) -> Big {
            let mut limbs = vec![0u32; e as usize / 32 + 1];
            limbs[e as usize / 32] = 1 << (e % 32);
            Big(limbs)
        }

        fn pow5(e: u32) -> Big {
            (0..e).fold(Big(vec![1]), |b, _| b.mul(&Big(vec![5])))
        }

        fn trim(mut self) -> Big {
            while self.0.last() == Some(&0) {
                self.0.pop();
            }
            self
        }

        fn mul(&self, other: &Big) -> Big {
            let mut out = vec![0u64; self.0.len() + other.0.len() + 1];
            for (i, &a) in self.0.iter().enumerate() {
                let mut carry = 0u64;
                for (j, &b) in other.0.iter().enumerate() {
                    let v = out[i + j] + u64::from(a) * u64::from(b) + carry;
                    out[i + j] = v & 0xffff_ffff;
                    carry = v >> 32;
                }
                out[i + other.0.len()] += carry;
            }
            Big(out.into_iter().map(|v| v as u32).collect()).trim()
        }

        fn bits(&self) -> u32 {
            self.0.last().map_or(0, |top| {
                32 * (self.0.len() as u32 - 1) + 32 - top.leading_zeros()
            })
        }

        fn compare(&self, other: &Big) -> std::cmp::Ordering {
            let (a, b) = (self.clone().trim(), other.clone().trim());
            a.0.len()
                .cmp(&b.0.len())
                .then_with(|| a.0.iter().rev().cmp(b.0.iter().rev()))
        }
    }

    #[test]
    fn pow5_entries_are_the_top_125_bits_of_each_power() {
        use std::cmp::Ordering::*;
        for (i, &entry) in POW5.iter().enumerate() {
            let pow = Big::pow5(i as u32);
            let len = pow.bits();
            assert_eq!(len, pow5bits(i as u32), "pow5bits({i})");
            // entry · 2^s <= 5^i < (entry + 1) · 2^s, s = len − 125
            // (for a short 5^i, entry = 5^i · 2^(125 − len) exactly).
            if len <= POW5_BITCOUNT {
                let scaled = pow.mul(&Big::pow2(POW5_BITCOUNT - len));
                assert_eq!(Big::from_u128(entry).compare(&scaled), Equal, "POW5[{i}]");
            } else {
                let unit = Big::pow2(len - POW5_BITCOUNT);
                assert_ne!(Big::from_u128(entry).mul(&unit).compare(&pow), Greater);
                assert_eq!(Big::from_u128(entry + 1).mul(&unit).compare(&pow), Greater);
            }
        }
    }

    #[test]
    fn pow5_inv_entries_are_one_more_than_the_floor_of_each_inverse() {
        use std::cmp::Ordering::*;
        for (q, &entry) in POW5_INV.iter().enumerate() {
            let pow = Big::pow5(q as u32);
            assert_eq!(pow.bits(), pow5bits(q as u32), "pow5bits({q})");
            // (entry − 1) · 5^q <= 2^j < entry · 5^q
            let two_j = Big::pow2(pow5bits(q as u32) - 1 + POW5_INV_BITCOUNT);
            assert_ne!(Big::from_u128(entry - 1).mul(&pow).compare(&two_j), Greater);
            assert_eq!(Big::from_u128(entry).mul(&pow).compare(&two_j), Greater);
        }
        // Spot checks against the published Ryū tables.
        assert_eq!(POW5_INV[0], 1 << 125 | 1);
        assert_eq!((POW5_INV[1] >> 64) as u64, 1_844_674_407_370_955_161);
        assert_eq!(POW5[1], 5 << 122);
    }

    // -----------------------------------------------------------------
    // The scanner
    // -----------------------------------------------------------------

    fn rows<const N: usize>(text: &str) -> Vec<(usize, Vec<&str>)> {
        let mut rows = Rows::body(text);
        std::iter::from_fn(|| rows.next_row::<N>())
            .map(|row| (row.count(), row.fields.to_vec()))
            .collect()
    }

    #[test]
    fn scanner_splits_rows_on_newline_and_fields_on_unicode_whitespace() {
        let body = "1 2\t3\r\n\n \u{3000} \n4\u{a0}5\u{2028}6\x0b\x0c\u{85}\n7é 8\r9\n";
        assert_eq!(
            rows::<3>(body),
            vec![
                (3, vec!["1", "2", "3"]),
                (3, vec!["4", "5", "6"]),
                (3, vec!["7é", "8", "9"]),
            ]
        );
        // Short and long rows report their count; a long row is skipped
        // whole, and the next row still splits.
        assert_eq!(
            rows::<2>("a\nb c d e\nf g"),
            vec![(1, vec!["a", ""]), (3, vec!["b", "c"]), (2, vec!["f", "g"])]
        );
        let mut one = Rows::line(" + 1\n2 3 ");
        let row = one.next_row::<4>().expect("a row");
        assert_eq!(row.fields(), Some(["+", "1", "2", "3"]));
        assert_eq!(row.line(), " + 1\n2 3 ");
        assert_eq!(row.after_first(), Some("1\n2 3 "));
        assert!(one.next_row::<4>().is_none());
        let row = Rows::body("  x\u{3000}y  \r\n")
            .next_row::<2>()
            .expect("a row");
        assert_eq!((row.line(), row.after_first()), ("x\u{3000}y", Some("y")));
    }
}

//! ISO-8601 timestamp parsing and formatting, hand-rolled.
//!
//! XES `date` attributes use ISO-8601 with an optional fractional second and
//! a zone offset (`2017-02-01T09:30:15.250+01:00`). We avoid a chrono
//! dependency by implementing the civil-date ↔ epoch-day conversion of
//! Howard Hinnant's `days_from_civil` algorithm.

use crate::error::{Error, Result};
use std::fmt::Write as _;

/// Days from 1970-01-01 for a proleptic Gregorian calendar date, or
/// `None` when the count overflows `i64`.
fn days_from_civil(y: i64, m: u32, d: u32) -> Option<i64> {
    let y = if m <= 2 { y.checked_sub(1)? } else { y };
    let era = y.div_euclid(400);
    let yoe = y.rem_euclid(400) as u64; // [0, 399]
    let mp = (m + 9) % 12; // [0, 11], Mar=0
    let doy = (153 * mp + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy as u64; // [0, 146096]
    era.checked_mul(146097)?.checked_add(doe as i64 - 719468)
}

/// Inverse of [`days_from_civil`].
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = (z - era * 146097) as u64; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Whether `y` is a leap year in the proleptic Gregorian calendar.
fn is_leap_year(y: i64) -> bool {
    (y % 4 == 0 && y % 100 != 0) || y % 400 == 0
}

/// Number of days in month `m` (1–12) of year `y`.
fn days_in_month(y: i64, m: u32) -> u32 {
    match m {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap_year(y) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

fn digits(s: &[u8], n: usize, at: usize) -> Option<i64> {
    if s.len() < at + n {
        return None;
    }
    let mut v: i64 = 0;
    for &b in &s[at..at + n] {
        if !b.is_ascii_digit() {
            return None;
        }
        v = v * 10 + (b - b'0') as i64;
    }
    Some(v)
}

/// Parses an ISO-8601 timestamp into epoch milliseconds (UTC).
///
/// Accepted shapes: `YYYY-MM-DD`, `YYYY-MM-DDTHH:MM:SS`, with optional
/// `.fff` fractional seconds (1–9 digits, truncated to milliseconds) and an
/// optional zone: `Z`, `+HH:MM`, `-HH:MM`, `+HHMM` or `+HH`. The year is
/// the field [`format_iso8601`] writes for any year: an optional `-`, then
/// digits, four characters at least (`0000`, `-001`, `10000`). A date whose
/// instant does not fit `i64` milliseconds is an error.
///
/// The calendar date is validated against real month lengths (leap-year
/// aware): `2021-02-30` or `2021-04-31` are rejected instead of silently
/// normalizing into a different instant via `days_from_civil`.
///
/// **Leap-second policy:** a seconds field of `60` is accepted anywhere (we
/// cannot know the historical leap-second table, and real logs contain such
/// stamps) and normalizes to the first instant of the *following* minute —
/// the Unix-time convention of folding the leap second into its successor.
/// Seconds `61`+ are rejected.
pub fn parse_iso8601(s: &str) -> Result<i64> {
    let b = s.trim().as_bytes();
    let fail = || Error::Timestamp(s.to_string());
    let negative = b.first() == Some(&b'-');
    let year_digits = &b[usize::from(negative)..];
    let year_digits = &year_digits[..year_digits.iter().take_while(|c| c.is_ascii_digit()).count()];
    let year_len = usize::from(negative) + year_digits.len();
    if year_digits.is_empty() || year_len < 4 {
        return Err(fail());
    }
    let magnitude = year_digits
        .iter()
        .try_fold(0i64, |v, &c| v.checked_mul(10)?.checked_add(i64::from(c - b'0')))
        .ok_or_else(fail)?;
    let year = if negative { -magnitude } else { magnitude };
    // The rest has fixed offsets from the end of the year.
    let b = &b[year_len..];
    if b.first() != Some(&b'-') {
        return Err(fail());
    }
    let month = digits(b, 2, 1).ok_or_else(fail)? as u32;
    if b.get(3) != Some(&b'-') {
        return Err(fail());
    }
    let day = digits(b, 2, 4).ok_or_else(fail)? as u32;
    if !(1..=12).contains(&month) || !(1..=days_in_month(year, month)).contains(&day) {
        return Err(fail());
    }
    // In i128 so that no sum below can overflow: the instant is checked
    // against i64 once, at the end.
    let days = days_from_civil(year, month, day).ok_or_else(fail)?;
    let mut millis = i128::from(days) * 86_400_000;
    let mut pos = 6;
    if b.len() > pos {
        if b[pos] != b'T' && b[pos] != b' ' {
            return Err(fail());
        }
        pos += 1;
        let hh = digits(b, 2, pos).ok_or_else(fail)?;
        let mm = digits(b, 2, pos + 3).ok_or_else(fail)?;
        let ss = digits(b, 2, pos + 6).ok_or_else(fail)?;
        if b.get(pos + 2) != Some(&b':') || b.get(pos + 5) != Some(&b':') {
            return Err(fail());
        }
        if hh > 23 || mm > 59 || ss > 60 {
            return Err(fail());
        }
        millis += i128::from((hh * 3600 + mm * 60 + ss) * 1000);
        pos += 8;
        // Fractional seconds.
        if b.get(pos) == Some(&b'.') {
            pos += 1;
            let start = pos;
            while pos < b.len() && b[pos].is_ascii_digit() {
                pos += 1;
            }
            if pos == start {
                return Err(fail());
            }
            let mut frac: i64 = 0;
            for i in 0..3 {
                frac = frac * 10
                    + b.get(start + i)
                        .filter(|c| c.is_ascii_digit())
                        .map_or(0, |c| (c - b'0') as i64);
            }
            millis += i128::from(frac);
        }
        // Zone offset.
        if pos < b.len() {
            match b[pos] {
                b'Z' | b'z' => pos += 1,
                sign @ (b'+' | b'-') => {
                    pos += 1;
                    let oh = digits(b, 2, pos).ok_or_else(fail)?;
                    pos += 2;
                    let om = if b.get(pos) == Some(&b':') {
                        pos += 1;
                        let v = digits(b, 2, pos).ok_or_else(fail)?;
                        pos += 2;
                        v
                    } else if pos + 2 <= b.len() && b[pos].is_ascii_digit() {
                        let v = digits(b, 2, pos).ok_or_else(fail)?;
                        pos += 2;
                        v
                    } else {
                        0
                    };
                    let offset = i128::from((oh * 60 + om) * 60_000);
                    millis += if sign == b'+' { -offset } else { offset };
                }
                _ => return Err(fail()),
            }
        }
    }
    if pos != b.len() {
        return Err(fail());
    }
    i64::try_from(millis).map_err(|_| fail())
}

/// Formats epoch milliseconds as `YYYY-MM-DDTHH:MM:SS.fffZ` (UTC).
pub fn format_iso8601(millis: i64) -> String {
    let mut out = String::with_capacity(24);
    push_iso8601(&mut out, millis);
    out
}

/// Appends epoch milliseconds to `out` as `YYYY-MM-DDTHH:MM:SS.fffZ`
/// (UTC). A year outside 0–9999 keeps its sign and every digit, padded to
/// four characters (`-001`, `10000`).
pub(crate) fn push_iso8601(out: &mut String, millis: i64) {
    let days = millis.div_euclid(86_400_000);
    let rem = millis.rem_euclid(86_400_000);
    let (y, m, d) = civil_from_days(days);
    let (hh, rem) = (rem / 3_600_000, rem % 3_600_000);
    let (mi, rem) = (rem / 60_000, rem % 60_000);
    let (ss, ms) = (rem / 1000, rem % 1000);
    let _ = write!(out, "{y:04}-{m:02}-{d:02}T{hh:02}:{mi:02}:{ss:02}.{ms:03}Z");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_zero() {
        assert_eq!(parse_iso8601("1970-01-01T00:00:00Z").unwrap(), 0);
        assert_eq!(parse_iso8601("1970-01-01").unwrap(), 0);
    }

    #[test]
    fn known_instants() {
        // 2017-02-01T09:30:15.250+01:00 == 2017-02-01T08:30:15.250Z
        let t = parse_iso8601("2017-02-01T09:30:15.250+01:00").unwrap();
        assert_eq!(format_iso8601(t), "2017-02-01T08:30:15.250Z");
        // Negative offset moves forward.
        let t2 = parse_iso8601("2017-02-01T09:30:15.250-01:00").unwrap();
        assert_eq!(t2 - t, 2 * 3600 * 1000);
    }

    #[test]
    fn fractional_precision_truncates_to_millis() {
        let a = parse_iso8601("2000-01-01T00:00:00.1Z").unwrap();
        let b = parse_iso8601("2000-01-01T00:00:00.100Z").unwrap();
        let c = parse_iso8601("2000-01-01T00:00:00.100999Z").unwrap();
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn round_trip_across_eras() {
        for &t in &[
            0i64,
            1,
            -1,
            1_000_123,
            1_485_938_415_250,
            -86_400_000,
            253_402_300_799_999, // 9999-12-31T23:59:59.999Z
            -2_208_988_800_000,  // 1900-01-01
        ] {
            let s = format_iso8601(t);
            assert_eq!(parse_iso8601(&s).unwrap(), t, "round trip failed for {s}");
        }
    }

    #[test]
    fn renderings_are_pinned() {
        for (millis, want) in [
            (-1, "1969-12-31T23:59:59.999Z"),
            (0, "1970-01-01T00:00:00.000Z"),
            (1_485_938_415_250, "2017-02-01T08:40:15.250Z"),
            (-62_167_219_200_000, "0000-01-01T00:00:00.000Z"),
            (253_402_300_799_999, "9999-12-31T23:59:59.999Z"),
            (253_402_300_800_000, "10000-01-01T00:00:00.000Z"),
            (-62_167_219_200_001, "-001-12-31T23:59:59.999Z"),
        ] {
            assert_eq!(format_iso8601(millis), want, "{millis}");
        }
    }

    #[test]
    fn every_written_year_reads_back() {
        // Both years the four-digit field cannot hold, then a sweep over
        // ±10^15 ms (about ±31,700 years) and both ends of i64.
        for t in [253_402_300_800_000, -62_167_219_200_001, i64::MIN, i64::MAX] {
            let s = format_iso8601(t);
            assert_eq!(parse_iso8601(&s).unwrap(), t, "round trip failed for {s}");
        }
        let step = 9_999_999_967; // ms, prime: every field moves between steps
        for k in -100_001i64..=100_001 {
            let t = k * step;
            let s = format_iso8601(t);
            assert_eq!(parse_iso8601(&s).ok(), Some(t), "round trip failed for {s}");
        }
    }

    #[test]
    fn year_field_shapes() {
        assert_eq!(parse_iso8601("-001-12-31T23:59:59.999Z").unwrap(), -62_167_219_200_001);
        assert_eq!(parse_iso8601("10000-01-01").unwrap(), 253_402_300_800_000);
        assert_eq!(parse_iso8601("-0001-12-31").unwrap(), parse_iso8601("-001-12-31").unwrap());
        // Fewer than four characters, no digits, or an instant past i64:
        // errors, never a panic.
        for bad in [
            "-01-01-01",
            "999-01-01",
            "--001-01-01",
            "-",
            "",
            "292278995-01-01",
            "-292275056-01-01",
            "1000000000000000000000000-01-01",
            "-1000000000000000000000000-01-01T00:00:00Z",
            "9223372036854775807-12-31",
        ] {
            assert!(matches!(parse_iso8601(bad), Err(Error::Timestamp(_))), "accepted {bad:?}");
        }
    }

    #[test]
    fn compact_and_hour_only_offsets() {
        let colon = parse_iso8601("2020-06-15T12:00:00+0530").unwrap();
        let compact = parse_iso8601("2020-06-15T12:00:00+05:30").unwrap();
        assert_eq!(colon, compact);
        let hour = parse_iso8601("2020-06-15T12:00:00+05").unwrap();
        assert_eq!(hour - compact, 30 * 60_000);
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "not-a-date",
            "2020-13-01",
            "2020-01-32",
            "2020-01-01T25:00:00Z",
            "2020-01-01T00:61:00Z",
            "2020-01-01X00:00:00Z",
            "2020-01-01T00:00:00.Z",
            "2020-01-01T00:00:00Q",
            "2020-01-01T00:00:00Ztrailing",
        ] {
            assert!(parse_iso8601(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn impossible_calendar_dates_are_rejected() {
        // Regression: these used to parse and silently normalize into the
        // following month via days_from_civil.
        for bad in [
            "2021-02-30",
            "2021-02-29", // 2021 is not a leap year
            "2100-02-29", // century non-leap year
            "2021-04-31",
            "2021-06-31",
            "2021-09-31",
            "2021-11-31",
            "2021-02-30T00:00:00Z",
            "2021-04-31T12:00:00+01:00",
        ] {
            assert!(parse_iso8601(bad).is_err(), "accepted impossible date {bad:?}");
        }
        // The matching valid dates still parse.
        for good in ["2020-02-29", "2000-02-29", "2021-04-30", "2021-12-31"] {
            assert!(parse_iso8601(good).is_ok(), "rejected valid date {good:?}");
        }
    }

    #[test]
    fn leap_second_folds_into_next_minute() {
        // Explicit policy: second 60 is accepted and normalizes to the first
        // instant of the following minute; 61+ is rejected.
        let leap = parse_iso8601("2016-12-31T23:59:60Z").unwrap();
        let next = parse_iso8601("2017-01-01T00:00:00Z").unwrap();
        assert_eq!(leap, next);
        let with_frac = parse_iso8601("2016-12-31T23:59:60.500Z").unwrap();
        assert_eq!(with_frac, next + 500);
        assert!(parse_iso8601("2016-12-31T23:59:61Z").is_err());
    }

    #[test]
    fn space_separator_accepted() {
        let a = parse_iso8601("2020-01-01 10:00:00Z").unwrap();
        let b = parse_iso8601("2020-01-01T10:00:00Z").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn leap_year_handling() {
        let feb29 = parse_iso8601("2020-02-29T00:00:00Z").unwrap();
        let mar01 = parse_iso8601("2020-03-01T00:00:00Z").unwrap();
        assert_eq!(mar01 - feb29, 86_400_000);
        assert_eq!(format_iso8601(feb29), "2020-02-29T00:00:00.000Z");
    }
}

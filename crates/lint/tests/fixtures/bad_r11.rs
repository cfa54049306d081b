//! Fixture: a narrowing `as` cast on an externally declared length
//! (retired R11; the parsing modules' `#![deny]` now fires
//! `clippy::cast_possible_truncation`).

/// Truncates on 32-bit targets instead of failing.
pub fn declared_len(count: u64) -> usize {
    count as usize
}

/// Widening cast: `u32 → u64` cannot lose bits, so nothing fires.
pub fn widen(v: u32) -> u64 {
    v as u64
}

//! Fixture: a module without `#![forbid(unsafe_code)]` or
//! `#![warn(missing_docs)]` of its own (retired R4; the workspace lint
//! table now fires `unsafe_code` and `missing_docs` wherever it sits).

/// Reads through a raw pointer.
pub fn first_byte(xs: &[u8]) -> u8 {
    unsafe { *xs.as_ptr() }
}

pub fn undocumented() {}

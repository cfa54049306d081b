//! Fixture: default-hasher map in a hot-path crate (retired R1; the hot
//! crates' clippy.toml now fires `clippy::disallowed_types`).

use std::collections::HashMap;

/// Seeded SipHash map — iteration order varies per process.
pub fn build() -> HashMap<u64, u64> {
    HashMap::new()
}
